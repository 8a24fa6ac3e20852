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

// Hasher builds a key from a sequence of typed fields. Every field is
// framed (length-prefixed or fixed-width) so distinct field sequences can
// never collide by concatenation ambiguity.
type Hasher struct {
	h hash.Hash
	// scratch carries every fixed-width field, string byte and the final
	// digest to h. A buffer on the stack would move to the heap on every
	// call, because h.Write is an interface call.
	scratch [sha256.BlockSize]byte
}

// NewHasher starts a key over the given stage-version string (e.g.
// "study/measure/v3"). Bump the stage version string whenever the stage's
// implementation changes observable output; that is the cache's only
// invalidation rule.
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

// String folds a length-prefixed string field into the key. The bytes
// reach the hash through the scratch block, one block at a time.
func (h *Hasher) String(s string) *Hasher {
	h.Int(int64(len(s)))
	for len(s) > 0 {
		n := copy(h.scratch[:], s)
		h.h.Write(h.scratch[:n])
		s = s[n:]
	}
	return h
}

// Int folds a fixed-width integer field into the key.
func (h *Hasher) Int(v int64) *Hasher {
	binary.BigEndian.PutUint64(h.scratch[:8], uint64(v))
	h.h.Write(h.scratch[:8])
	return h
}

// Bool folds a boolean field into the key.
func (h *Hasher) Bool(v bool) *Hasher {
	h.scratch[0] = 0
	if v {
		h.scratch[0] = 1
	}
	h.h.Write(h.scratch[:1])
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
	return Key(h.h.Sum(h.scratch[:0]))
}
