// Package a exercises the bufown pass: positive cases (double release,
// use-after-release, error-path leaks, unretained keeps) and negative cases
// (transfer on send, deferred release, Retain-across-spawn).
package a

import (
	"errors"

	"repro/internal/wire"
)

var errFail = errors.New("fail")

// msg mimics the am.Msg envelope shape: PayloadBuf is a borrowed payload
// field while a handler runs.
type msg struct {
	PayloadBuf *wire.Buf
}

type holder struct {
	buf *wire.Buf
}

var savedGlobal *wire.Buf

// send consumes its argument (the transfer-out sink); the summary proves it
// takes ownership, so passing an owned buffer discharges the obligation.
func send(b *wire.Buf) { b.Release() }

func spawn(fn func()) {}

// use only borrows: reads, never releases or forwards.
func use(b *wire.Buf) { _ = b.Len() }

func sink(p []byte) int { return len(p) }

// --- positives -------------------------------------------------------------

func doubleRelease() {
	b := wire.Get(8)
	b.Release()
	b.Release() // want `released twice`
}

func useAfterRelease() int {
	b := wire.Get(8)
	b.Release()
	return sink(b.Bytes()) // want `after its final Release`
}

func leakOnErrorPath(fail bool) error {
	b := wire.Get(8)
	if fail {
		return errFail // want `leaks on this return path`
	}
	send(b)
	return nil
}

func storeBorrowedWithoutRetain(m msg) {
	savedGlobal = m.PayloadBuf // want `without Retain`
}

func keepBorrowedInFieldWithoutRetain(h *holder, m msg) {
	h.buf = m.PayloadBuf // want `without Retain`
}

func captureBorrowedWithoutRetain(m msg) {
	spawn(func() { // want `captured without Retain`
		use(m.PayloadBuf)
	})
}

func explicitWithDeferredPending() {
	b := wire.Get(8)
	defer b.Release()
	b.Release() // want `deferred Release pending`
}

func maybeDoubleRelease(cond bool) {
	b := wire.Get(8)
	if cond {
		b.Release()
	}
	b.Release() // want `may already be released`
}

// --- negatives -------------------------------------------------------------

func transferOnSend() {
	b := wire.Get(8)
	send(b) // ownership moves to the callee: no leak
}

func deferredRelease() int {
	b := wire.Copy([]byte("ok"))
	defer b.Release()
	return sink(b.Bytes())
}

func retainAcrossSpawn(m msg) {
	// The threaded-dispatch idiom from core/rmi.go: Retain before handing
	// the payload to a spawned thread, Release when it finishes.
	pb := m.PayloadBuf
	if pb != nil {
		pb.Retain()
	}
	spawn(func() {
		if pb != nil {
			pb.Release()
		}
	})
}

func paramOwnershipIn(b *wire.Buf, h *holder) {
	// Naked *wire.Buf parameters follow the transfer-in convention
	// (RequestOwned, DeliverRemote): keeping one is legal.
	h.buf = b
}

func storeOwnedIntoEnvelope(h *holder) {
	b := wire.Get(8)
	h.buf = b // ownership transfers into the structure
}

func branchReleaseBothPaths(cond bool) {
	b := wire.Get(8)
	if cond {
		b.Release()
	} else {
		send(b)
	}
}

// --- transfer summary ------------------------------------------------------

// peek borrows: the summary records takes=false for its parameter.
func peek(b *wire.Buf) int { return b.Len() }

// payload hands out a borrowed field: returns-owned is false.
func payload(m msg) *wire.Buf { return m.PayloadBuf }

func releaseAfterBorrowingCall() {
	b := wire.Get(8)
	_ = peek(b) // peek only borrows: b is still this function's to release
	b.Release()
}

func leakThroughBorrowingCall() {
	b := wire.Get(8)
	_ = peek(b) // the old transfer-in convention hid this leak
} // want `leaks at end of function`

func storeHandedOutBorrowWithoutRetain(m msg) {
	pb := payload(m)
	savedGlobal = pb // want `without Retain`
}

func retainHandedOutBorrow(m msg) {
	pb := payload(m)
	pb.Retain()
	savedGlobal = pb
}

// The escape hatch: a deliberate violation justified in place is suppressed
// and counted, not reported.
func pragmaEscapeHatch() {
	b := wire.Get(8)
	b.Release()
	b.Release() //mpmdvet:ignore bufown deliberate double release exercising the escape hatch
}
