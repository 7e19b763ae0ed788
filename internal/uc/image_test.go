package uc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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

// collectedFlag sets a finalizer on img and returns the flag it raises
// once img has become garbage and been collected.
func collectedFlag(img *interp.Image) *atomic.Bool {
	dead := new(atomic.Bool)
	runtime.SetFinalizer(img, func(*interp.Image) { dead.Store(true) })
	return dead
}

// collectUntil runs the collector until dead is raised or a bounded
// number of tries pass, and reports whether it was raised. A finalizer
// runs on its own goroutine after the cycle that found its object
// unreachable, so each try also gives it a moment.
func collectUntil(dead *atomic.Bool) bool {
	for try := 0; try < 50 && !dead.Load(); try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return dead.Load()
}

// warmTwice captures a function snapshot over base, deploys it twice,
// checks both deploys shared one image, destroys both UCs and returns
// the snapshot with a flag its image raises once it is collected.
func warmTwice(t *testing.T, base *snapshot.Snapshot) (*snapshot.Snapshot, *atomic.Bool) {
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
	return fn, collectedFlag(img)
}

// TestImageDiesWithItsSnapshot: a snapshot builds its image on its
// first deploy and reuses it after, no encoding carries it, and once
// the snapshot is deleted and its UCs destroyed the image is garbage,
// while the base snapshot's image it was derived from lives on.
func TestImageDiesWithItsSnapshot(t *testing.T) {
	base := initRuntimeSnapshot(t, mem.NewStore(0), true)
	fn, imgDead := warmTwice(t, base)
	if imageOn(base) == nil {
		t.Fatal("deploying from the base snapshot built no image on it")
	}
	baseImgDead := collectedFlag(imageOn(base))
	if err := fn.Delete(); err != nil {
		t.Fatal(err)
	}
	fn = nil
	if !collectUntil(imgDead) {
		t.Error("a deleted snapshot's image is still reachable")
	}
	if baseImgDead.Load() {
		t.Error("the base snapshot's image was collected with its child's")
	}
	runtime.KeepAlive(base)
}
