package main

import (
	"encoding/json"
	"fmt"
	"os"

	"coevo/internal/cache"
)

// runCache administers an on-disk cache directory: stats (footprint),
// clear (drop every entry), verify (integrity walk, removing corrupt
// entries).
func runCache(args []string) error {
	fs := newFlagSet("cache")
	dir := fs.String("cache-dir", "", "cache directory to administer (required)")
	jsonOut := fs.Bool("json", false, "print 'cache stats' as a JSON document instead of the one-line summary")
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, `usage: coevo cache -cache-dir DIR <stats|clear|verify>

  stats   report the store's entry count and payload volume
  clear   drop every entry (the directory itself is kept)
  verify  walk every entry, validate framing and checksums, and remove
          corrupt entries (the pipeline recomputes them on the next run)
`)
		fs.PrintDefaults()
	}
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cache: -cache-dir is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cache: exactly one operation (stats, clear or verify) expected")
	}
	// Administer the disk store only: the memory layer is process-local
	// and always starts empty here.
	c, err := cache.New(cache.Options{Dir: *dir, MemoryBytes: -1})
	if err != nil {
		return err
	}
	switch op := fs.Arg(0); op {
	case "stats":
		rep, err := c.Size()
		if err != nil {
			return err
		}
		if *jsonOut {
			doc := struct {
				Dir     string `json:"dir"`
				Entries int    `json:"entries"`
				Bytes   int64  `json:"bytes"`
			}{Dir: c.Dir(), Entries: rep.Entries, Bytes: rep.Bytes}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}
		fmt.Printf("cache %s: %d entries, %d payload bytes\n", c.Dir(), rep.Entries, rep.Bytes)
		return nil
	case "clear":
		if err := c.Clear(); err != nil {
			return err
		}
		fmt.Printf("cache %s: cleared\n", c.Dir())
		return nil
	case "verify":
		rep, err := c.Verify()
		if err != nil {
			return err
		}
		fmt.Printf("cache %s: %d intact entries (%d payload bytes), %d corrupt removed, %d foreign files skipped\n",
			c.Dir(), rep.Entries, rep.Bytes, rep.Corrupt, rep.Foreign)
		if rep.Corrupt > 0 {
			fmt.Println("corrupt entries were removed; the next run recomputes them")
		}
		return nil
	default:
		return fmt.Errorf("cache: unknown operation %q (want stats, clear or verify)", op)
	}
}
