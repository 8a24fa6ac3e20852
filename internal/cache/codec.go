package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Enc is an append-only binary encoder for cache values: varint-framed,
// deterministic, with no reflection. Stage codecs build on it so their
// wire format stays explicit and versioned by the stage string of the
// key.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded value. The slice aliases the encoder's
// buffer: it is invalidated by Reset and by PutEnc.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset empties the buffer, retaining capacity for reuse.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Copy returns an owned, exact-size copy of the encoded value — the form
// to hand to Cache.Put (which retains value slices) when the encoder is
// pooled or about to be reset.
func (e *Enc) Copy() []byte {
	p := make([]byte, len(e.buf))
	copy(p, e.buf)
	return p
}

// encPool amortizes encoder buffers across encodes (measure bundles,
// partial figures). Steady-state encoding then allocates only the final
// Copy handed to the cache.
var encPool = sync.Pool{New: func() any { return new(Enc) }}

// GetEnc returns an empty pooled encoder. Release it with PutEnc once
// the encoded bytes have been copied out (Copy) or fully consumed.
func GetEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.Reset()
	return e
}

// PutEnc recycles a pooled encoder. Slices previously returned by Bytes
// become invalid.
func PutEnc(e *Enc) { encPool.Put(e) }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a signed integer as a zigzag varint.
func (e *Enc) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends a boolean byte.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Float appends a float64 by its IEEE-754 bits.
func (e *Enc) Float(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Time appends a UTC timestamp at nanosecond precision.
func (e *Enc) Time(t time.Time) { e.Int(t.UnixNano()) }

// ErrCodec reports a malformed cache value. Decoders return it (wrapped)
// so callers can treat decode failures like any other miss and recompute.
var ErrCodec = errors.New("cache: malformed value")

// Dec is the matching cursor decoder. The first malformed read marks the
// decoder failed; subsequent reads return zero values, and Err reports
// the failure, so decode call sites stay linear without per-field checks.
type Dec struct {
	buf []byte
	err error
}

// NewDec wraps an encoded value.
func NewDec(p []byte) *Dec { return &Dec{buf: p} }

// Failed reports whether a read has gone wrong so far — the mid-stream
// loop guard. Unlike Err it does not require the input to be exhausted,
// so it is safe to consult while bytes legitimately remain.
func (d *Dec) Failed() bool { return d.err != nil }

// Err returns the first decode error, also failing if unread bytes
// remain (a length mismatch means the value is not what we wrote). Call
// it once, after the last field was read.
func (d *Dec) Err() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.buf))
	}
	return nil
}

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s", ErrCodec, what)
	}
}

// minimalVarint reports whether the n-byte varint at the head of p is the
// shortest encoding of its value, the only one Enc writes: a longer one
// ends in a zero byte.
func minimalVarint(p []byte, n int) bool { return n == 1 || p[n-1] != 0 }

// Uvarint reads an unsigned varint. Like every read it accepts only the
// encoding Enc writes, so one value has one accepted encoding.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || !minimalVarint(d.buf, n) {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads a zigzag varint.
func (d *Dec) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 || !minimalVarint(d.buf, n) {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Bool reads a boolean byte.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 || d.buf[0] > 1 {
		d.fail("bool")
		return false
	}
	v := d.buf[0] == 1
	d.buf = d.buf[1:]
	return v
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail("string length")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Float reads a float64.
func (d *Dec) Float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Time reads a timestamp (UTC).
func (d *Dec) Time() time.Time {
	ns := d.Int()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}
