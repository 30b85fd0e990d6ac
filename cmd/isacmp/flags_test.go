package main

import (
	"strings"
	"testing"
)

// TestSubcommandFlags: a flag the subcommand does not read is a usage
// error naming the flag, never silently ignored. Accepted cases end in
// -h, so parsing stops (exit 0) before anything runs.
func TestSubcommandFlags(t *testing.T) {
	for _, c := range []struct {
		args     []string
		wantCode int
		wantFlag string // named in stderr when rejected
	}{
		{[]string{"all", "-scale", "tiny", "-fusion", "both", "-parallel", "2", "-stride", "8", "-h"}, 0, ""},
		{[]string{"all", "-core", "ooo"}, 2, "-core"},
		{[]string{"all", "-target", "rv64-gcc9"}, 2, "-target"},
		{[]string{"all", "-latency-file", "lat.txt"}, 2, "-latency-file"},
		{[]string{"run", "-core", "ooo", "-cache", "-target", "all", "-trace", "t.json", "-trace-cap", "8", "-h"}, 0, ""},
		{[]string{"run", "-durable-dir", "d", "-retries", "1", "-profile-trace", "p.json", "-h"}, 0, ""},
		{[]string{"run", "-latency-file", "/nonexistent"}, 2, "-latency-file"},
		{[]string{"run", "-stride", "8"}, 2, "-stride"},
		{[]string{"scaledcp", "-latency-file", "lat.txt", "-h"}, 0, ""},
		{[]string{"critpath", "-latency-file", "lat.txt"}, 2, "-latency-file"},
		{[]string{"windowcp", "-stride", "8", "-h"}, 0, ""},
		{[]string{"pathlen", "-stride", "8"}, 2, "-stride"},
		{[]string{"mix", "-cache"}, 2, "-cache"},
		{[]string{"disasm", "-kernel", "copy", "-target", "rv64-gcc12", "-h"}, 0, ""},
		{[]string{"disasm", "-parallel", "2"}, 2, "-parallel"},
		{[]string{"trace", "-n", "4", "-kernel", "copy", "-h"}, 0, ""},
		{[]string{"blocks", "-kernel", "copy"}, 2, "-kernel"},
		{[]string{"artifacts", "-dir", "out", "-h"}, 0, ""},
		{[]string{"verify", "-scale", "tiny", "-json", "m.json", "-h"}, 0, ""},
		{[]string{"verify", "-fusion", "both"}, 2, "-fusion"},
		{[]string{"nosuchcommand"}, 2, ""},
	} {
		name := strings.Join(c.args, " ")
		t.Run(name, func(t *testing.T) {
			_, stderr, code := runCmd(t, c.args...)
			if code != c.wantCode {
				t.Fatalf("exit %d, want %d\n%s", code, c.wantCode, stderr)
			}
			if c.wantFlag != "" && !strings.Contains(stderr, "defined: "+c.wantFlag) {
				t.Fatalf("stderr does not name %s:\n%s", c.wantFlag, stderr)
			}
		})
	}
}

// TestSubcommandHelp: -h lists the subcommand's own flags only.
func TestSubcommandHelp(t *testing.T) {
	for _, c := range []struct {
		cmd       string
		want, not []string
	}{
		{"run", []string{"-core", "-cache", "-trace-sample", "-target", "-parallel", "-json"}, []string{"-latency-file", "-stride", "-kernel"}},
		{"all", []string{"-stride", "-fusion", "-durable-dir", "-scale"}, []string{"-core", "-target", "-latency-file", "-dir"}},
		{"scaledcp", []string{"-latency-file"}, []string{"-stride", "-core"}},
		{"disasm", []string{"-kernel", "-target", "-scale"}, []string{"-parallel", "-fusion", "-n "}},
	} {
		t.Run(c.cmd, func(t *testing.T) {
			_, stderr, code := runCmd(t, c.cmd, "-h")
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			for _, f := range c.want {
				if !strings.Contains(stderr, "  "+f) {
					t.Errorf("help does not list %s:\n%s", f, stderr)
				}
			}
			for _, f := range c.not {
				if strings.Contains(stderr, "  "+f) {
					t.Errorf("help lists %s, which %s does not read:\n%s", f, c.cmd, stderr)
				}
			}
		})
	}
}
