package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownRunNameListsSuites is the UX contract: a typo'd -run name
// fails with the full list of valid suite names, not a bare error.
func TestUnknownRunNameListsSuites(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-run", "tabel1"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	msg := errOut.String()
	if !strings.Contains(msg, `unknown experiment "tabel1"`) {
		t.Errorf("error does not name the bad suite: %q", msg)
	}
	for _, name := range []string{"all", "table1", "loadgen", "chaos"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list valid name %q: %q", name, msg)
		}
	}
}

// TestUnknownRunNameAmongValid rejects a list with bad entries even when
// the others are valid, before running anything: a bad name after a valid
// one, and with two bad names the first on the command line, every time
// (repeated, since a map-ordered check would pick either).
func TestUnknownRunNameAmongValid(t *testing.T) {
	for _, names := range []string{"table1,nope", "nope,table1,zz"} {
		for i := 0; i < 20; i++ {
			var out, errOut bytes.Buffer
			code := run([]string{"-run", names}, &out, &errOut)
			if code != 1 {
				t.Fatalf("-run %s: exit code = %d, want 1; stderr: %s", names, code, errOut.String())
			}
			if !strings.Contains(errOut.String(), `unknown experiment "nope"`) {
				t.Fatalf("-run %s: error does not name the first bad suite: %q", names, errOut.String())
			}
			if out.Len() != 0 {
				t.Fatalf("-run %s: experiments ran before validation: %q", names, out.String())
			}
		}
	}
}

// TestListIncludesLoadgen pins the new suite's registry entry.
func TestListIncludesLoadgen(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "loadgen") {
		t.Errorf("-list output missing loadgen: %q", out.String())
	}
}

// TestBadLoadFlagRejected pins the shared -arrival validation path.
func TestBadLoadFlagRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-tenants", "4", "-arrival", "constant", "-run", "loadgen"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown arrival process") {
		t.Errorf("error does not mention the arrival flag: %q", errOut.String())
	}
}

// TestLegacyReportFlagsGone: the four JSON report modes and their quick
// switch are unknown flags, refused before anything runs.
func TestLegacyReportFlagsGone(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "x"}, {"-shootout", "x"}, {"-checks", "x"}, {"-loadgen", "x"}, {"-bench-quick"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr does not name the flag: %q", args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: something ran: %q", args, out.String())
		}
	}
}
