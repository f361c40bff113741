// Package a exercises the wirewords pass: structs reaching the frame encoder
// (FrameMarshaler implementors or //mpmd:wire) must be word-resolvable.
package a

// --- positives -------------------------------------------------------------

type badPtr struct {
	N int64
	P *int64 // want `pointer`
}

func (b *badPtr) WireLen() int              { return 16 }
func (b *badPtr) EncodeWire(dst []byte) int { return 16 }

type badMap struct {
	M map[string]int // want `map`
}

func (b *badMap) WireLen() int              { return 0 }
func (b *badMap) EncodeWire(dst []byte) int { return 0 }

type badAny struct {
	V any // want `interface`
}

func (b *badAny) WireLen() int              { return 0 }
func (b *badAny) EncodeWire(dst []byte) int { return 0 }

type inner struct {
	C chan int
}

type badNested struct {
	In inner // want `field C: chan`
}

func (b *badNested) WireLen() int              { return 0 }
func (b *badNested) EncodeWire(dst []byte) int { return 0 }

//mpmd:wire
type badAnnotated struct {
	F func() // want `func`
}

// --- negatives -------------------------------------------------------------

type okWords struct {
	Bulk    bool
	Src     int32
	A       [4]uint64
	Name    string
	Payload []byte
	Sub     okNested
}

type okNested struct {
	X float64
	Y []uint32
}

func (m *okWords) WireLen() int              { return 0 }
func (m *okWords) EncodeWire(dst []byte) int { return 0 }

// notWire never reaches the encoder: no methods, no directive — any shape
// is fine.
type notWire struct {
	M map[string]chan func()
	P *notWire
}

type okPragma struct {
	Payload []byte
	//mpmdvet:ignore wirewords envelope bookkeeping the encoder strips before framing
	Pool *int
}

func (m *okPragma) WireLen() int              { return 0 }
func (m *okPragma) EncodeWire(dst []byte) int { return 0 }
