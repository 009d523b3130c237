package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzOpen pins the codec contract sync and scrub rely on when they
// verify a digest once: open either rejects a frame with ErrCorrupt or
// returns a payload that seal turns back into the identical frame. It
// never panics, and never returns (or allocates for) more payload than
// the frame carries or maxPayload allows.
func FuzzOpen(f *testing.F) {
	for _, payload := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("checkpoint state"),
		bytes.Repeat([]byte{0xA5, 0x00, 0xFF}, 300),
	} {
		frame := seal(payload)
		f.Add(frame)
		f.Add(frame[:len(frame)-3])
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte(codecMagic))
	f.Fuzz(func(t *testing.T, frame []byte) {
		payload, err := open(frame)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open rejected a frame with %v, want ErrCorrupt", err)
			}
			if payload != nil {
				t.Fatalf("open returned %d payload bytes with an error", len(payload))
			}
			return
		}
		if len(payload) > maxPayload || len(payload) > len(frame) {
			t.Fatalf("open returned %d payload bytes from a %d-byte frame", len(payload), len(frame))
		}
		if again := seal(payload); !bytes.Equal(again, frame) {
			t.Fatalf("seal(open(frame)) differs from the frame:\n%x\n%x", again, frame)
		}
	})
}
