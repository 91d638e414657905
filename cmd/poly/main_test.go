package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// runSub runs `poly sub args...` in-process.
func runSub(sub string, args []string, out, errw io.Writer) int {
	return run(append([]string{sub}, args...), out, errw)
}

// TestHelpExitsZero: -h (and -help) prints a subcommand's usage with
// its flags and exits 0, like flag.ExitOnError tools do.
func TestHelpExitsZero(t *testing.T) {
	for _, tc := range []struct{ sub, arg, flag string }{
		{"sim", "-h", "-pattern"},
		{"sweep", "-h", "-scenarios"},
		{"load", "-help", "-scenarios"},
		{"bench", "-h", "-fig"},
		{"chaos", "-h", "-plan"},
		{"shuffle", "-h", "-mappers"},
		{"store", "-h", "-replicas"},
	} {
		t.Run(tc.sub, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := runSub(tc.sub, []string{tc.arg}, &out, &errw); code != 0 {
				t.Fatalf("poly %s %s exited %d, want 0", tc.sub, tc.arg, code)
			}
			for _, want := range []string{"Usage of poly " + tc.sub, tc.flag, "-seed"} {
				if !strings.Contains(errw.String(), want) {
					t.Fatalf("help output missing %q: %s", want, errw.String())
				}
			}
		})
	}
}

// TestSubcommandRequired: poly with no subcommand, or an unknown one,
// exits 2 and lists every subcommand; poly -h lists them and exits 0.
func TestSubcommandRequired(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"polysim"}, 2},
		{[]string{"-proto", "rq"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"help"}, 0},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != tc.code {
			t.Fatalf("poly %v exited %d, want %d", tc.args, code, tc.code)
		}
		if out.Len() != 0 {
			t.Fatalf("poly %v wrote to stdout: %s", tc.args, out.String())
		}
		for _, s := range subcommands {
			if !strings.Contains(errw.String(), "  "+s.name+" ") {
				t.Fatalf("poly %v does not list %q: %s", tc.args, s.name, errw.String())
			}
		}
	}
}

// TestParseList: comma lists skip blank items, and an empty list is an
// error, for every subcommand that takes one.
func TestParseList(t *testing.T) {
	got, err := parseList(" incast, ,shuffle,", "scenarios")
	if err != nil || strings.Join(got, "|") != "incast|shuffle" {
		t.Fatalf("parseList = %q, %v", got, err)
	}
	for _, arg := range []string{"", ",", " , "} {
		if _, err := parseList(arg, "scenarios"); err == nil {
			t.Fatalf("parseList(%q) accepted an empty list", arg)
		}
	}
}
