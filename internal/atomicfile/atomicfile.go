// Package atomicfile replaces a file only once its new contents are
// completely written, so a save that fails part way (an unencodable value, a
// full disk) leaves the previous file intact instead of truncated.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write calls write on a temporary file in path's directory, then syncs and
// closes it and renames it over path. If write, Sync or Close fails, path
// keeps its previous contents and the temporary file is removed. The new
// file keeps the permissions of the file it replaces, or gets 0644.
func Write(path string, write func(io.Writer) error) (err error) {
	perm := os.FileMode(0o644)
	if fi, statErr := os.Stat(path); statErr == nil {
		perm = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // already closed on the Close and Rename failure paths
			_ = os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(perm); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
