// Package chain exercises lockguard's transitive layer: helper lock effects
// (net acquire / release) applied through the call-graph summary.
package chain

import "sync"

type store struct {
	mu sync.Mutex
	n  int //mpmdvet:guard mu
}

// bump mutates guarded state on the caller's behalf.
//
//mpmdvet:locked s.mu
func bump(s *store) {
	s.n++ // clean: locked seeds the entry lockset
}

// lock is a net-acquire helper: the summary sees mu held at every exit, so
// callers get the lock in their set without an inline mu.Lock().
func lock(s *store) {
	s.mu.Lock()
}

// unlock releases on the caller's behalf; locked is the release root
// (entry-held, gone at exit).
//
//mpmdvet:locked s.mu
func unlock(s *store) {
	s.mu.Unlock()
}

func viaHelpers(s *store) {
	lock(s)
	bump(s)
	s.n++ // clean: lock's net-acquire effect reached this site
	unlock(s)
}

func afterUnlockHelper(s *store) {
	lock(s)
	unlock(s)
	s.n++ // want `field n is guarded by mu \(//mpmdvet:guard\): not provably held at this access`
}

// lockIndirect acquires through another helper: effects compose bottom-up
// through the summary fixpoint.
func lockIndirect(s *store) {
	lock(s)
}

func viaIndirect(s *store) {
	lockIndirect(s)
	s.n++ // clean: the nested net-acquire composes
	s.mu.Unlock()
}

// A deferred helper call runs at exit: its release does not apply here.
func deferredUnlock(s *store) {
	lock(s)
	defer unlock(s) // the deferred release keeps mu held below
	s.n++           // clean
}
