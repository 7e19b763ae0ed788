// Command user is a second module that imports the fixture, as bench/
// imports the repository.
package main

import (
	"fmt"

	"censusfix"
	"censusfix/internal/lib"
)

func main() { fmt.Println(censusfix.Run() + lib.UsedByUser()) }
