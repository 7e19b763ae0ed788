package uc

import (
	"runtime"
	"testing"
	"weak"

	"seuss/internal/interp"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/snapshot"
)

// imageOn returns the interpreter image snap's payload holds (nil
// before its first deploy).
func imageOn(snap *snapshot.Snapshot) *interp.Image {
	return snap.Payload().(Payload).image
}

// warmTwice captures a function snapshot over base, deploys it twice,
// checks both deploys shared one image, destroys both UCs and returns
// the snapshot with a weak pointer to its image.
func warmTwice(t *testing.T, base *snapshot.Snapshot) (*snapshot.Snapshot, weak.Pointer[interp.Image]) {
	t.Helper()
	env := &libos.CountingEnv{}
	u, err := Deploy(base, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	u.Guest().Connect()
	if err := u.Guest().ImportAndCompile(echoSource); err != nil {
		t.Fatal(err)
	}
	fn, err := u.Capture("fn", TriggerPCPostCompile)
	if err != nil {
		t.Fatal(err)
	}
	u.Destroy()
	if imageOn(fn) != nil {
		t.Fatal("a captured snapshot carries an image before its first deploy")
	}
	w1, err := Deploy(fn, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	img := imageOn(fn)
	w2, err := Deploy(fn, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if img == nil || imageOn(fn) != img {
		t.Fatal("the second deploy did not reuse the first one's image")
	}
	data, err := fn.Payload().(Payload).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := DecodePayload(data); err != nil || back.image != nil {
		t.Fatalf("decoded payload: image %p, %v", back.image, err)
	}
	w1.Destroy()
	w2.Destroy()
	return fn, weak.Make(img)
}

// TestImageDiesWithItsSnapshot: a snapshot builds its image on its
// first deploy and reuses it after, no encoding carries it, and once
// the snapshot is deleted and its UCs destroyed the image is garbage,
// while the base snapshot's image it was derived from lives on.
func TestImageDiesWithItsSnapshot(t *testing.T) {
	base := initRuntimeSnapshot(t, mem.NewStore(0), true)
	fn, img := warmTwice(t, base)
	baseImg := weak.Make(imageOn(base))
	if baseImg.Value() == nil {
		t.Fatal("deploying from the base snapshot built no image on it")
	}
	if err := fn.Delete(); err != nil {
		t.Fatal(err)
	}
	fn = nil
	runtime.GC()
	if img.Value() != nil {
		t.Error("a deleted snapshot's image is still reachable")
	}
	if baseImg.Value() == nil {
		t.Error("the base snapshot's image was collected with its child's")
	}
	runtime.KeepAlive(base)
}
