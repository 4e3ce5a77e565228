package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests run the real command in a child process: TestMain links the
// test binary into a temporary directory as "moca-trace", and a binary
// started under that name runs main instead of the tests. Exit status,
// stdout and stderr are therefore exactly what a user sees.

const traceItems = 200_000

var (
	binDir string
	// recordPath is a 200k-item mcf trace with default blocks, recorded
	// once before the tests run; recordOut is what record printed.
	recordPath, recordOut string
)

func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "moca-trace" {
		main()
		os.Exit(0)
	}
	code, err := runTests(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(code)
}

func runTests(m *testing.M) (int, error) {
	dir, err := os.MkdirTemp("", "moca-trace-test")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	if err := os.Symlink(self, filepath.Join(dir, "moca-trace")); err != nil {
		return 0, err
	}
	binDir = dir
	recordPath = filepath.Join(dir, "mcf.trc")
	cmd := exec.Command(filepath.Join(dir, "moca-trace"), "record", "-app", "mcf",
		"-items", fmt.Sprint(traceItems), "-o", recordPath)
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("moca-trace record: %w", err)
	}
	recordOut = string(out)
	return m.Run(), nil
}

// mocaTrace runs the command and returns its stdout, stderr and exit
// status.
func mocaTrace(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "moca-trace"), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("moca-trace %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), code
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, errOut, code := mocaTrace(t, args...)
	if code != 0 {
		t.Fatalf("moca-trace %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

func TestRecordInfoInspectSeek(t *testing.T) {
	path := recordPath
	if want := fmt.Sprintf("recorded %d stream items of mcf (ref input)", traceItems); !strings.HasPrefix(recordOut, want) {
		t.Errorf("record printed %q, want prefix %q", recordOut, want)
	}

	info := mustRun(t, "info", path)
	if want := fmt.Sprintf("items:         %d (", traceItems); !strings.Contains(info, want) {
		t.Errorf("info output lacks %q:\n%s", want, info)
	}

	inspect := strings.Split(strings.TrimSpace(mustRun(t, "inspect", path)), "\n")
	if got := strings.Fields(inspect[0]); strings.Join(got, " ") != "offset seq items bytes" {
		t.Errorf("inspect header = %q", inspect[0])
	}
	blocks := len(inspect) - 2
	wantTail := fmt.Sprintf("%d blocks, %d items; ", blocks, traceItems)
	if last := inspect[len(inspect)-1]; blocks < 2 || !strings.HasPrefix(last, wantTail) {
		t.Errorf("inspect summary = %q, want prefix %q", last, wantTail)
	}
	// Rows run in stream order and their item counts add up.
	var seq uint64
	for _, row := range inspect[1 : len(inspect)-1] {
		var off, at, n, size uint64
		if _, err := fmt.Sscan(row, &off, &at, &n, &size); err != nil {
			t.Fatalf("inspect row %q: %v", row, err)
		}
		if at != seq {
			t.Fatalf("inspect row %q starts at item %d, want %d", row, at, seq)
		}
		seq += n
	}
	if seq != traceItems {
		t.Errorf("inspect rows cover %d items, want %d", seq, traceItems)
	}

	seek := strings.Split(strings.TrimSpace(mustRun(t, "seek", "-seq", "100000", "-n", "5", path)), "\n")
	if len(seek) != 6 || !strings.HasPrefix(seek[0], "block at offset ") {
		t.Fatalf("seek output:\n%s", strings.Join(seek, "\n"))
	}
	for i, line := range seek[1:] {
		if f := strings.Fields(line); f[0] != fmt.Sprint(100000+i) {
			t.Errorf("seek line %d = %q, want item %d", i, line, 100000+i)
		}
	}
}

func TestConvertIsIdempotent(t *testing.T) {
	path := recordPath
	out := filepath.Join(t.TempDir(), "converted.trc")
	mustRun(t, "convert", "-o", out, path)
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("convert of a default-block trace changed it: %d -> %d bytes", len(a), len(b))
	}
}

// TestReplayAcrossBlockSizes: re-blocking a trace changes its framing,
// never what replays from it, whole or positioned past a prefix.
func TestReplayAcrossBlockSizes(t *testing.T) {
	path := recordPath
	small := filepath.Join(t.TempDir(), "b700.trc")
	mustRun(t, "convert", "-block-items", "700", "-o", small, path)

	replay := func(file string, skip string) string {
		out := mustRun(t, "replay", "-app", "mcf", "-measure", "20000", "-skip", skip, "-json", file)
		if !json.Valid([]byte(out)) {
			t.Fatalf("replay -json printed invalid JSON:\n%s", out)
		}
		return out
	}
	whole := replay(path, "0")
	if got := replay(small, "0"); got != whole {
		t.Errorf("whole replay differs between block sizes:\n%s\n%s", whole, got)
	}
	skipped := replay(path, "50000")
	if got := replay(small, "50000"); got != skipped {
		t.Errorf("-skip 50000 replay differs between block sizes:\n%s\n%s", skipped, got)
	}
	if skipped == whole {
		t.Error("-skip 50000 replayed the same result as the whole trace")
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown input", []string{"record", "-app", "mcf", "-input", "trian"}, `unknown input "trian"`},
		{"removed format flag", []string{"record", "-app", "mcf", "-format", "v1"}, "-format"},
	} {
		out := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".trc")
		_, errOut, code := mocaTrace(t, append(tc.args, "-o", out)...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (usage)\n%s", tc.name, code, errOut)
		}
		if !strings.Contains(errOut, tc.stderr) || !strings.Contains(strings.ToLower(errOut), "usage") {
			t.Errorf("%s: stderr lacks %q and the usage text:\n%s", tc.name, tc.stderr, errOut)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: wrote %s despite the usage error", tc.name, out)
		}
	}
}

// TestReplayRejectsUnknownMethod: a block stored with a codec this build
// does not define (method 1 was LZ in older writers) fails with exit
// status 1 and an error naming the method.
func TestReplayRejectsUnknownMethod(t *testing.T) {
	data, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	// Header (8-byte magic, version), block marker, then four uvarints:
	// seq, count, raw and stored lengths. The method byte follows.
	p := 10
	for i := 0; i < 4; i++ {
		_, n := binary.Uvarint(data[p:])
		if n <= 0 {
			t.Fatalf("malformed first block header at offset %d", p)
		}
		p += n
	}
	data[p] = 1
	path := filepath.Join(t.TempDir(), "method1.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, skip := range []string{"0", "50000"} {
		_, errOut, code := mocaTrace(t, "replay", "-app", "mcf", "-measure", "20000", "-skip", skip, "-json", path)
		if code != 1 || !strings.Contains(errOut, "method 1") || strings.Contains(errOut, "panic") {
			t.Errorf("-skip %s: exit %d, stderr %q; want exit 1 naming method 1", skip, code, errOut)
		}
	}
}
