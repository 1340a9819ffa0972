package gsi

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 10000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 50); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:8]
	if _, err := ReadFrame(bytes.NewReader(trunc), 0); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want EOF", err)
	}
}

func TestFrameProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			return false
		}
		got, err := ReadFrame(&buf, 0)
		return err == nil && bytes.Equal(got, payload) && buf.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// failReader errors on every Read: if the frame reader tries to pull body
// bytes (which implies it already allocated the payload buffer), the test
// sees readBodyErr instead of ErrFrameTooLarge.
type failReader struct{ hdr []byte }

var readBodyErr = errors.New("read past the header")

func (f *failReader) Read(p []byte) (int, error) {
	if len(f.hdr) == 0 {
		return 0, readBodyErr
	}
	n := copy(p, f.hdr)
	f.hdr = f.hdr[n:]
	return n, nil
}

// TestOversizedPrefixRejectedBeforeAllocation: a hostile length prefix is
// refused by the bound check alone — no payload read, no payload
// allocation — however large the caller sets max.
func TestOversizedPrefixRejectedBeforeAllocation(t *testing.T) {
	hostile := []byte{0xff, 0xff, 0xff, 0xff} // claims ~4 GiB
	if _, err := ReadFrame(&failReader{hdr: hostile}, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame(hostile prefix) = %v, want ErrFrameTooLarge", err)
	}
	// A caller-supplied max beyond the wire ceiling is clamped to
	// MaxFrameSize, so the hostile prefix still loses.
	if _, err := ReadFrame(&failReader{hdr: hostile}, 1<<31); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame(hostile prefix, huge max) = %v, want ErrFrameTooLarge", err)
	}
	stream := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1}
	if _, _, err := ReadStreamFrame(&failReader{hdr: stream}, 1<<31); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadStreamFrame(hostile prefix) = %v, want ErrFrameTooLarge", err)
	}
	// The rejection allocates no payload: only the error value itself.
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = ReadFrame(&failReader{hdr: []byte{0xff, 0xff, 0xff, 0xff}}, 0)
	})
	if allocs > 8 {
		t.Errorf("oversized-prefix rejection allocated %.0f objects; payload-sized make must not run", allocs)
	}
}

// TestWriteFrameRejectsOversizedPayload: the writers refuse payloads past
// MaxFrameSize instead of truncating the uint32 length header.
func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame(oversized) = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteStreamFrame(io.Discard, 7, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteStreamFrame(oversized) = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, 4096)); err != nil {
		t.Fatalf("WriteFrame(small) = %v", err)
	}
}

// writeRecorder records what each Write call was handed, both as a copy
// and as the slice itself.
type writeRecorder struct{ copies, handed [][]byte }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.copies = append(w.copies, bytes.Clone(p))
	w.handed = append(w.handed, p)
	return len(p), nil
}

// A frame goes out in one Write — header and payload together, so one TLS
// record and one system call — in both framings, and the assembled copy is
// cleared once written, since request payloads carry pass phrases.
func TestFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 5, 4096, 100 << 10} {
		payload := bytes.Repeat([]byte{'s'}, n)
		for _, stream := range []bool{false, true} {
			w := &writeRecorder{}
			var err error
			if stream {
				err = WriteStreamFrame(w, 9, payload)
			} else {
				err = WriteFrame(w, payload)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(w.copies) != 1 {
				t.Fatalf("stream=%v, %d-byte payload: %d writes, want 1", stream, n, len(w.copies))
			}
			r := bytes.NewReader(w.copies[0])
			var got []byte
			if stream {
				var id uint32
				id, got, err = ReadStreamFrame(r, 0)
				if id != 9 {
					t.Errorf("stream id %d, want 9", id)
				}
			} else {
				got, err = ReadFrame(r, 0)
			}
			if err != nil || !bytes.Equal(got, payload) || r.Len() != 0 {
				t.Fatalf("stream=%v, %d-byte payload: the one write does not read back as the frame: %v", stream, n, err)
			}
			if bytes.ContainsRune(w.handed[0], 's') {
				t.Errorf("stream=%v, %d-byte payload: the written copy was not cleared", stream, n)
			}
		}
	}
}
