// Package gsi provides the Grid Security Infrastructure substrate the paper
// builds on (paper §2): mutually authenticated, encrypted channels carrying
// proxy-certificate chains (§2.2), credential delegation over those channels
// (§2.4), and gridmap DN-to-account mapping (§2.1).
//
// The transport is crypto/tls with certificate-path logic replaced by the
// proxy-aware validator in internal/proxy, since the standard library cannot
// validate chains whose intermediates are end-entity certificates.
package gsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// DefaultMaxFrame bounds a single protocol message. Credential chains and
// MyProxy requests are small; a megabyte is generous.
const DefaultMaxFrame = 1 << 20

// MaxFrameSize is the absolute wire ceiling: no frame, whatever limit a
// caller configures, may carry more payload than this. Readers clamp the
// caller's max to it before comparing the length prefix — the comparison
// dominates the allocation, so a hostile prefix can never demand more
// than MaxFrameSize bytes — and writers refuse to emit a larger frame,
// which also rules out the silent uint32 truncation a multi-gigabyte
// payload would otherwise hit in the length header.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when an incoming frame exceeds the limit,
// or an outgoing payload exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("gsi: frame exceeds maximum size")

// WriteFrame writes one length-prefixed message.
//
//myproxy:hotpath
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), MaxFrameSize)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("gsi: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("gsi: write frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message of at most max bytes
// (max <= 0 selects DefaultMaxFrame).
//
//myproxy:hotpath
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if max > MaxFrameSize {
		max = MaxFrameSize
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("gsi: read frame body: %w", err)
	}
	return payload, nil
}

// Stream frames extend the base framing for multiplexed sessions: the
// 4-byte length counts a 4-byte stream identifier plus the payload, so a
// plain-frame reader that meets a stream frame fails loudly on the id
// bytes instead of silently misparsing (and vice versa the id doubles as
// a cheap sanity check — id 0 is reserved and never valid on the wire).

// streamIDLen is the size of the stream identifier inside a stream frame.
const streamIDLen = 4

// WriteStreamFrame writes one length-prefixed message tagged with a
// stream identifier (id must be nonzero).
//
//myproxy:hotpath
func WriteStreamFrame(w io.Writer, id uint32, payload []byte) error {
	if id == 0 {
		return errors.New("gsi: stream id 0 is reserved")
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), MaxFrameSize)
	}
	var hdr [4 + streamIDLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+streamIDLen))
	binary.BigEndian.PutUint32(hdr[4:], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("gsi: write stream frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("gsi: write stream frame body: %w", err)
	}
	return nil
}

// ReadStreamFrame reads one stream-tagged frame of at most max payload
// bytes (max <= 0 selects DefaultMaxFrame).
//
//myproxy:hotpath
func ReadStreamFrame(r io.Reader, max int) (uint32, []byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if max > MaxFrameSize {
		max = MaxFrameSize
	}
	var hdr [4 + streamIDLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < streamIDLen {
		return 0, nil, errors.New("gsi: stream frame shorter than stream id")
	}
	if n-streamIDLen > uint32(max) {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n-streamIDLen, max)
	}
	id := binary.BigEndian.Uint32(hdr[4:])
	if id == 0 {
		return 0, nil, errors.New("gsi: stream id 0 is reserved")
	}
	payload := make([]byte, n-streamIDLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("gsi: read stream frame body: %w", err)
	}
	return id, payload, nil
}
