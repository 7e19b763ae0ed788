package lib

import "testing"

func TestOnly(t *testing.T) {
	if Used(Options{TestOnly: 1})+onlyTests() == 0 {
		t.Fail()
	}
}
