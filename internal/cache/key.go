package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"time"
)

// Key is the content address of one cache entry: the sha256 of a
// stage-version string and the stage's input bytes.
type Key [sha256.Size]byte

// String renders the key as lower-case hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// NewKey addresses one input blob under a stage version (e.g.
// "study/measure/v3"): shorthand for NewHasher(stage).Bytes(input).Sum().
// Bump the stage version string whenever the stage's implementation
// changes observable output; that is the cache's only invalidation rule.
func NewKey(stage string, input []byte) Key {
	return NewHasher(stage).Bytes(input).Sum()
}

// Hasher builds a key from a sequence of typed fields. Every field is
// framed (length-prefixed or fixed-width) so distinct field sequences can
// never collide by concatenation ambiguity.
type Hasher struct {
	h hash.Hash
}

// NewHasher starts a key over the given stage-version string.
func NewHasher(stage string) *Hasher {
	h := &Hasher{h: sha256.New()}
	return h.String(stage)
}

// Bytes folds a length-prefixed byte field into the key.
func (h *Hasher) Bytes(p []byte) *Hasher {
	h.Int(int64(len(p)))
	h.h.Write(p)
	return h
}

// String folds a length-prefixed string field into the key.
func (h *Hasher) String(s string) *Hasher {
	h.Int(int64(len(s)))
	h.h.Write([]byte(s))
	return h
}

// Int folds a fixed-width integer field into the key.
func (h *Hasher) Int(v int64) *Hasher {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	h.h.Write(buf[:])
	return h
}

// Bool folds a boolean field into the key.
func (h *Hasher) Bool(v bool) *Hasher {
	b := byte(0)
	if v {
		b = 1
	}
	h.h.Write([]byte{b})
	return h
}

// Float folds a float64 field into the key by its IEEE-754 bits.
func (h *Hasher) Float(v float64) *Hasher {
	return h.Int(int64(math.Float64bits(v)))
}

// Time folds a timestamp into the key at nanosecond precision.
func (h *Hasher) Time(t time.Time) *Hasher {
	return h.Int(t.UnixNano())
}

// Sum finalizes the key. The hasher must not be used afterwards.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}
