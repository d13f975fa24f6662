// Package cli is the output path that cmd/dsouthwell, cmd/benchtables and
// the experiment driver share: the up-front check of output-path flags, the
// CPU and heap profile pair, and one create-write-close.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// CheckOutputs checks output-path flags before anything runs, so a typo
// fails with one line naming its flag instead of after minutes of work.
// Each entry is a {flag, path} pair, and an empty path is an unset flag.
// A file flag must not name a directory, and its parent must exist. A
// directory flag must not name an existing non-directory; a missing one is
// created on first write. No file flag may share a path, after
// filepath.Clean, with any other flag, directories included: one output
// would overwrite the other, or fail late. Nor may a file flag sit directly
// in a directory flag's directory, where it could be one of that flag's
// files (-out d -cpuprofile d/fig6.txt). Directory flags may share one,
// since each writes files of its own suffix.
func CheckOutputs(files, dirs [][2]string) error {
	for _, d := range dirs {
		if fi, err := os.Stat(d[1]); d[1] != "" && err == nil && !fi.IsDir() {
			return fmt.Errorf("%s %q: exists and is not a directory", d[0], d[1])
		}
	}
	for i, f := range files {
		flag, path := f[0], f[1]
		if path == "" {
			continue
		}
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			return fmt.Errorf("%s %q: is a directory, want a file path", flag, path)
		}
		if dir := filepath.Dir(path); dir != "." {
			fi, err := os.Stat(dir)
			if err != nil {
				return fmt.Errorf("%s %q: parent directory %q does not exist", flag, path, dir)
			}
			if !fi.IsDir() {
				return fmt.Errorf("%s %q: parent %q is not a directory", flag, path, dir)
			}
		}
		// Against the earlier file flags and every directory flag.
		for _, o := range append(files[:i:i], dirs...) {
			if o[1] != "" && filepath.Clean(o[1]) == filepath.Clean(path) {
				return fmt.Errorf("%s and %s %q: must be different paths", o[0], flag, path)
			}
		}
		for _, d := range dirs {
			if d[1] != "" && filepath.Clean(d[1]) == filepath.Dir(path) {
				return fmt.Errorf("%s %q: inside the %s directory %q, whose files it could overwrite", flag, path, d[0], d[1])
			}
		}
	}
	return nil
}

// StartProfiles starts a pprof CPU profile into cpu when it is set, and
// returns stop, which the caller runs once on every exit path, failed runs
// included: it flushes and closes the CPU profile, then, when mem is set,
// runs a GC and writes a heap profile to mem. Errors name the flag,
// -cpuprofile or -memprofile, that both binaries give these paths.
func StartProfiles(cpu, mem string) (stop func() error, err error) {
	var f *os.File
	if cpu != "" {
		if f, err = os.Create(cpu); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var cpuErr, memErr error
		if f != nil {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				cpuErr = fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem != "" {
			runtime.GC()
			if err := WriteFile(mem, pprof.WriteHeapProfile); err != nil {
				memErr = fmt.Errorf("-memprofile: %w", err)
			}
		}
		return errors.Join(cpuErr, memErr)
	}, nil
}

// WriteFile creates path and its missing parent directories, runs write on
// it and closes it, returning the first error of the three.
func WriteFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
