//go:build !unix

package netlive

import "repro/internal/transport"

// shmPlane and shmTx are absent on platforms without the mmap'd rings: no
// link ever gets a tx, so every link carries its data frames on its socket.
type (
	shmPlane struct{}
	shmTx    struct{}
)

func (tx *shmTx) send(*Backend, int, int, int, transport.FrameMarshaler) {}

func (b *Backend) shmSetup() error { return nil }
func (b *Backend) shmStart()       {}
func (b *Backend) shmShutdown()    {}
func (b *Backend) shmWake(int)     {}

// ShmActive reports whether the shared-memory rings are carrying this
// backend's cross-shard packets; never on this platform.
func (b *Backend) ShmActive() bool { return false }
