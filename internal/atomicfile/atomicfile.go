// Package atomicfile is the one write path for files that readers must
// never see torn: the cache's disk entries, job records and run-ledger
// manifests.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces path with data. The bytes go to a temporary file in
// path's directory, which is then renamed over path, so a reader sees the
// old content or the new one, never a mix; concurrent writers of one path
// are safe (the last rename wins). The temporary file is removed on any
// failure. Nothing is fsynced, so the guarantee holds against a crashed
// process, not against a crashed machine.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
