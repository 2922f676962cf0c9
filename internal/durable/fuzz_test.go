package durable

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame walks arbitrary bytes as a WAL segment the way recovery
// does, and decodes the same bytes as a bare record payload. Every input
// must end the walk with an error or at the end of the data, never
// panic; every record that decodes must re-encode to a frame that reads
// back and re-encodes to the same bytes. The seed corpus in
// testdata/fuzz/FuzzReadFrame holds a clean multi-record segment, a
// segment with a torn tail and one with a flipped payload bit.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			rec, next, err := readFrame(data, off)
			if err != nil {
				break
			}
			if next <= off || next > len(data) {
				t.Fatalf("frame at %d advanced to %d of %d", off, next, len(data))
			}
			off = next
			frame, err := appendFrame(nil, rec)
			if err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
			}
			again, end, err := readFrame(frame, 0)
			if err != nil || end != len(frame) {
				t.Fatalf("re-encoded frame does not read back (end %d of %d): %v", end, len(frame), err)
			}
			if frame2, err := appendFrame(nil, again); err != nil || !bytes.Equal(frame, frame2) {
				t.Fatalf("re-encoding is not a fixpoint: %v", err)
			}
		}
		if rec, err := decodeRecordPayload(data); err == nil {
			if _, err := appendRecordPayload(nil, rec); err != nil {
				t.Fatalf("decoded payload %+v does not re-encode: %v", rec, err)
			}
		}
	})
}

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder, both
// as a whole file and behind a correct checksum so the gob decoder sees
// them too. Every input must fail with an error or decode to a manifest
// whose encoding round-trips; none may panic. The seed corpus in
// testdata/fuzz/FuzzDecodeManifest holds a real manifest, a truncated
// one and a bit-flipped one.
func FuzzDecodeManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Only the absence of a panic is under test here.
		decodeManifest(data)
		body := data
		if len(body) >= 4 {
			body = body[4:]
		}
		sealed := binary.LittleEndian.AppendUint32(nil, crcOf(body))
		man, err := decodeManifest(append(sealed, body...))
		if err != nil {
			return
		}
		enc, err := encodeManifest(man)
		if err != nil {
			t.Fatalf("decoded manifest %+v does not re-encode: %v", man, err)
		}
		again, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if enc2, err := encodeManifest(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("manifest re-encoding is not a fixpoint: %v", err)
		}
	})
}
