package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckOutputs: each refusal names its flag (both flags for a shared
// path) on one line, and the paths the binaries legitimately take pass.
func TestCheckOutputs(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "plain.txt")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	type pairs = [][2]string
	for _, tc := range []struct {
		name        string
		files, dirs pairs
		want        []string // flags the error names; none when accepted
	}{
		{"file is a directory", pairs{{"-cpuprofile", tmp}}, nil, []string{"-cpuprofile"}},
		{"file's parent missing", pairs{{"-trace", filepath.Join(tmp, "no", "t.json")}}, nil, []string{"-trace"}},
		{"file's parent is a file", pairs{{"-memprofile", filepath.Join(file, "mem.prof")}}, nil, []string{"-memprofile"}},
		{"dir is a file", nil, pairs{{"-out", file}}, []string{"-out"}},
		{"two files share a path", pairs{{"-trace", file}, {"-metrics", file}}, nil, []string{"-trace", "-metrics"}},
		{"equal after Clean", pairs{{"-cpuprofile", "x"}, {"-memprofile", "./x"}}, nil, []string{"-cpuprofile", "-memprofile"}},
		{"file shares a missing dir's path", pairs{{"-cpuprofile", "x"}}, pairs{{"-out", "x"}}, []string{"-out", "-cpuprofile"}},
		{"file shares an existing dir's path", pairs{{"-memprofile", tmp}}, pairs{{"-trace", tmp}}, []string{"-memprofile"}},
		{"file in a dir flag's directory", pairs{{"-cpuprofile", filepath.Join(tmp, "fig6.txt")}}, pairs{{"-out", tmp}}, []string{"-out", "-cpuprofile"}},
		{"file in a dir flag's directory after Clean", pairs{{"-memprofile", tmp + "/./m.prof"}}, pairs{{"-trace", tmp + "/"}}, []string{"-trace", "-memprofile"}},

		{"all unset", pairs{{"-cpuprofile", ""}, {"-memprofile", ""}}, pairs{{"-out", ""}, {"-trace", ""}}, nil},
		{"dirs share a path", nil, pairs{{"-out", tmp}, {"-trace", tmp}, {"-metrics", filepath.Join(tmp, "new")}}, nil},
		{"distinct files, one existing", pairs{{"-trace", file}, {"-metrics", filepath.Join(tmp, "m.txt")}, {"-cpuprofile", "cpu.prof"}}, pairs{{"-out", filepath.Join(tmp, "out")}}, nil},
		{"file in a subdirectory of a dir flag", pairs{{"-cpuprofile", filepath.Join(tmp, "cpu.prof")}}, pairs{{"-out", filepath.Dir(tmp)}}, nil},
	} {
		err := CheckOutputs(tc.files, tc.dirs)
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != nil && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error is not one line: %q", tc.name, err)
		}
		for _, flag := range tc.want {
			if err != nil && !strings.Contains(err.Error(), flag+" ") {
				t.Errorf("%s: error %q does not name %s", tc.name, err, flag)
			}
		}
	}
}

// TestWriteFile: missing parents are created, and each failure — the parent
// cannot be made, the path cannot be created, the write fails — is returned.
func TestWriteFile(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "plain.txt")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	hello := func(w io.Writer) error { _, err := io.WriteString(w, "hello"); return err }
	errWrite := errors.New("write failed")
	for _, tc := range []struct {
		name  string
		path  string
		write func(io.Writer) error
		want  error // nil: any error
		ok    bool
	}{
		{"new parents", filepath.Join(tmp, "a", "b", "out.txt"), hello, nil, true},
		{"overwrite", file, hello, nil, true},
		{"parent is a file", filepath.Join(file, "out.txt"), hello, nil, false},
		{"path is a directory", tmp, hello, nil, false},
		{"write fails", filepath.Join(tmp, "partial.txt"), func(io.Writer) error { return errWrite }, errWrite, false},
	} {
		err := WriteFile(tc.path, tc.write)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: no error", tc.name)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if tc.ok {
			if got, err := os.ReadFile(tc.path); err != nil || string(got) != "hello" {
				t.Errorf("%s: file holds %q, %v; want hello", tc.name, got, err)
			}
		}
	}
}

// TestProfiles: stop writes both profiles, non-empty; with neither set it
// writes nothing; a CPU profile that cannot be created fails the start, and
// a heap profile that cannot be written fails stop after the CPU profile
// is flushed; both errors name their flag.
func TestProfiles(t *testing.T) {
	tmp := t.TempDir()
	cpu, mem := filepath.Join(tmp, "cpu.prof"), filepath.Join(tmp, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}

	if stop, err = StartProfiles("", ""); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("no profiles: stop: %v", err)
	}

	if _, err := StartProfiles(tmp, ""); err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("CPU profile into a directory: error %v, want one naming -cpuprofile", err)
	}

	cpu2 := filepath.Join(tmp, "cpu2.prof")
	if stop, err = StartProfiles(cpu2, tmp); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil || !strings.Contains(err.Error(), "-memprofile") || strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("heap profile into a directory: stop error %v, want one naming only -memprofile", err)
	}
	if fi, err := os.Stat(cpu2); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile not flushed beside a failed heap profile (%v)", err)
	}
}
