package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coevo/internal/atomicfile"
)

// Disk entry framing: a 4-byte magic, the big-endian payload length, the
// payload's own sha256, then the payload. The checksum is over the value
// (the key already names the inputs), so any torn write or bit flip is
// detected on read and the entry is healed by deletion + recompute.
var diskMagic = [4]byte{'C', 'C', 'H', '1'}

const diskHeaderSize = 4 + 8 + sha256.Size

// diskStore persists entries under root with a two-hex-character fanout:
// root/ab/cdef... — 256 shard directories keep any single directory small
// at corpus scale. Writes go through atomicfile.Write, so concurrent
// writers of the same key are safe (last rename wins with identical
// content) and readers never observe a partial entry.
type diskStore struct {
	root string
}

func newDiskStore(root string) (*diskStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &diskStore{root: root}, nil
}

// path returns the sharded entry path for key.
func (d *diskStore) path(key Key) string {
	hex := key.String()
	return filepath.Join(d.root, hex[:2], hex[2:])
}

// get reads and validates the entry; corrupt reports whether a damaged
// entry was found (and removed).
func (d *diskStore) get(key Key) (value []byte, ok, corrupt bool) {
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false, false
	}
	value, err = decodeEntry(raw)
	if err != nil {
		// Self-heal: drop the damaged entry so the recomputed value can be
		// rewritten cleanly.
		os.Remove(d.path(key))
		return nil, false, true
	}
	return value, true, false
}

func (d *diskStore) put(key Key, value []byte) error {
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicfile.Write(path, encodeEntry(value))
}

func encodeEntry(value []byte) []byte {
	buf := make([]byte, diskHeaderSize+len(value))
	copy(buf, diskMagic[:])
	binary.BigEndian.PutUint64(buf[4:], uint64(len(value)))
	sum := sha256.Sum256(value)
	copy(buf[12:], sum[:])
	copy(buf[diskHeaderSize:], value)
	return buf
}

func decodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < diskHeaderSize || !bytes.Equal(raw[:4], diskMagic[:]) {
		return nil, fmt.Errorf("cache: bad entry header")
	}
	n := binary.BigEndian.Uint64(raw[4:])
	value := raw[diskHeaderSize:]
	if uint64(len(value)) != n {
		return nil, fmt.Errorf("cache: truncated entry: %d of %d payload bytes", len(value), n)
	}
	sum := sha256.Sum256(value)
	if !bytes.Equal(sum[:], raw[12:12+sha256.Size]) {
		return nil, fmt.Errorf("cache: entry checksum mismatch")
	}
	return value, nil
}

// clear removes every shard directory (but keeps the root).
func (d *diskStore) clear() error {
	shards, err := os.ReadDir(d.root)
	if err != nil {
		return err
	}
	for _, s := range shards {
		if err := os.RemoveAll(filepath.Join(d.root, s.Name())); err != nil {
			return err
		}
	}
	return nil
}

// size walks every entry file without reading payloads, summing payload
// sizes from the file sizes. Foreign files are skipped.
func (d *diskStore) size() (SizeReport, error) {
	var rep SizeReport
	shards, err := os.ReadDir(d.root)
	if err != nil {
		return rep, err
	}
	for _, s := range shards {
		if !s.IsDir() || len(s.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(d.root, s.Name()))
		if err != nil {
			return rep, err
		}
		for _, e := range entries {
			if e.IsDir() || len(s.Name()+e.Name()) != 2*sha256.Size || strings.HasPrefix(e.Name(), ".tmp-") {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return rep, err
			}
			rep.Entries++
			if n := info.Size() - diskHeaderSize; n > 0 {
				rep.Bytes += n
			}
		}
	}
	return rep, nil
}

// verify walks every entry, validating framing and checksum; corrupt
// entries are removed. Files that do not look like cache entries (wrong
// name shape) are counted as foreign and left alone.
func (d *diskStore) verify() (VerifyReport, error) {
	var rep VerifyReport
	shards, err := os.ReadDir(d.root)
	if err != nil {
		return rep, err
	}
	for _, s := range shards {
		if !s.IsDir() || len(s.Name()) != 2 {
			rep.Foreign++
			continue
		}
		shardDir := filepath.Join(d.root, s.Name())
		entries, err := os.ReadDir(shardDir)
		if err != nil {
			return rep, err
		}
		for _, e := range entries {
			path := filepath.Join(shardDir, e.Name())
			if e.IsDir() || len(s.Name()+e.Name()) != 2*sha256.Size || strings.HasPrefix(e.Name(), ".tmp-") {
				rep.Foreign++
				continue
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return rep, err
			}
			value, derr := decodeEntry(raw)
			if derr != nil {
				rep.Corrupt++
				os.Remove(path)
				continue
			}
			rep.Entries++
			rep.Bytes += int64(len(value))
		}
	}
	return rep, nil
}
