package transport_test

import (
	"bytes"
	"testing"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/transport"
)

// FuzzFrameDecode fuzzes the frame decoder with a seed corpus drawn
// from every registered message type (so mutation starts from valid
// frames of each shape, including reliable's nested DATA frames) plus
// hand-picked malformed headers. The invariants under fuzz:
//
//  1. DecodeFrame never panics and never over-consumes.
//  2. Accept implies canonical: anything that decodes re-encodes to
//     exactly the bytes consumed. With strict per-type decoders this
//     means each message has one wire representation — the property
//     that makes byte-level goldens over captured traffic meaningful.
func FuzzFrameDecode(f *testing.F) {
	src := rng.New(0x5EEDC0DE)
	for _, id := range transport.RegisteredIDs() {
		c, ok := transport.CodecByID(id)
		if !ok {
			f.Fatalf("CodecByID(%#04x) missing", id)
		}
		for i := 0; i < 4; i++ {
			frame, err := transport.EncodeFrame(c.Sample(src))
			if err != nil {
				f.Fatalf("%s: seed encode: %v", c.Name, err)
			}
			f.Add(frame)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 1, 0, 1})                       // minimal empty-payload frame shape
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 1})           // absurd length
	f.Add([]byte{0, 0, 0, 4, 1, 1, 1, 2})                    // non-canonical lid opcode
	f.Add([]byte{0, 0, 0, 10, 1, 3, 1, 0, 0, 0, 0, 0, 0, 0}) // truncated DATA nest

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, consumed, err := transport.DecodeFrame(data)
		if err != nil {
			return
		}
		if consumed < 7 || consumed > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", consumed, len(data))
		}
		re, err := transport.EncodeFrame(msg)
		if err != nil {
			t.Fatalf("decoded a %T the encoder rejects: %v", msg, err)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("non-canonical accept:\n    input: %x\nre-encode: %x", data[:consumed], re)
		}
	})
}
