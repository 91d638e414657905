package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickArgs keeps CLI tests to a few hundred milliseconds: a tiny
// ladder on the k=4 fabric, one seed per probe.
func quickArgs(extra ...string) []string {
	base := []string{
		"-k", "4", "-senders", "4", "-bytes", "16384",
		"-scenarios", "incast", "-backends", "rq",
		"-slo-fct", "2ms", "-rungs", "3", "-refine", "1", "-seeds", "1",
	}
	return append(base, extra...)
}

func TestRunTable(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(quickArgs(), &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"PolyLoad saturation search", "incast/polyraptor", "knee:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCSV(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(quickArgs("-format", "csv"), &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "scenario,backend,kind,load,knob,slo_attainment,fct_p99_s,goodput_gbps,ok" {
		t.Errorf("bad CSV header: %s", lines[0])
	}
	if len(lines) < 4 {
		t.Errorf("want >= 3 rung rows, got %d lines", len(lines)-1)
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != 8 {
			t.Errorf("row has %d commas, want 8: %s", n, l)
		}
	}
}

func TestRunJSONSchemaAndDeterminism(t *testing.T) {
	var a, b, errw bytes.Buffer
	if code := run(quickArgs("-format", "json"), &a, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if code := run(quickArgs("-format", "json", "-parallel", "4"), &b, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if a.String() != b.String() {
		t.Error("JSON output differs across -parallel settings")
	}
	var rep report
	if err := json.Unmarshal(a.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != "polyload/v1" {
		t.Errorf("schema = %q, want polyload/v1", rep.Schema)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(rep.Results))
	}
	res := rep.Results[0]
	if res.Scenario != "incast" || res.Backend != "polyraptor" {
		t.Errorf("unexpected result identity: %s/%s", res.Scenario, res.Backend)
	}
	for i := 1; i < len(res.Ladder); i++ {
		if res.Ladder[i].Load <= res.Ladder[i-1].Load {
			t.Errorf("ladder loads not ascending at %d", i)
		}
	}
	if res.Censored == "" && res.Knee == nil {
		t.Error("uncensored result without a knee")
	}
}

func TestRunHistOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hists.json")
	var out, errw bytes.Buffer
	if code := run(quickArgs("-hist-out", path), &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	var dump []histDump
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("invalid hist dump: %v", err)
	}
	if len(dump) == 0 {
		t.Fatal("hist dump is empty")
	}
	if dump[0].Scenario != "incast" {
		t.Errorf("dump[0].Scenario = %q", dump[0].Scenario)
	}
}

// Every bad flag combination must fail fast with exit code 2 and a
// polyload-prefixed message, before any simulation runs.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"stray"}},
		{"bad scenario", quickArgs("-scenarios", "nope")},
		{"bad backend", quickArgs("-backends", "quic")},
		{"bad format", quickArgs("-format", "yaml")},
		{"negative slo", quickArgs("-slo-fct", "-1ms")},
		{"negative goodput floor", quickArgs("-slo-goodput", "-2")},
		{"negative p99 ceiling", quickArgs("-p99-max", "-5ms")},
		{"zero target", quickArgs("-target", "0")},
		{"target above one", quickArgs("-target", "1.5")},
		{"inverted ladder", quickArgs("-load-min", "2", "-load-max", "1")},
		{"zero load floor", quickArgs("-load-min", "0")},
		{"one rung", quickArgs("-rungs", "1")},
		{"negative refine", quickArgs("-refine", "-1")},
		{"zero seeds", quickArgs("-seeds", "0")},
		{"odd arity", quickArgs("-k", "5")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := run(tc.args, &out, &errw)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errw.String())
			}
			if errw.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}

// -help prints usage and exits 0.
func TestHelp(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-help"}, &out, &errw); code != 0 {
		t.Fatalf("-help exited %d", code)
	}
	if !strings.Contains(errw.String(), "-scenarios") {
		t.Error("usage text missing flag docs")
	}
}

// TestGoldenReport: the default incast+shuffle knee search on rq and
// tcp reproduces, byte for byte, the report captured from polyload at
// commit b5526c0 — before the harness was collapsed onto Run.
func TestGoldenReport(t *testing.T) {
	want, err := os.ReadFile("../../internal/harness/testdata/polyload_incast_shuffle.json")
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	args := []string{"-scenarios", "incast,shuffle", "-backends", "rq,tcp", "-format", "json"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("polyload %v differs from the golden report (%d vs %d bytes)", args, out.Len(), len(want))
	}
}

// TestFanoutBeyondFabricIsAFlagError: a k=2 fabric has one out-of-rack
// host, so fig1a's default 3 replicas cannot be placed. This used to
// spin the replica picker forever; it must be an immediate exit 2.
func TestFanoutBeyondFabricIsAFlagError(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-k", "2", "-scenarios", "fig1a", "-backends", "rq", "-rungs", "2", "-refine", "0", "-seeds", "1"}
	if code := run(args, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "replicas") {
		t.Fatalf("error does not name the impossible fan-out: %s", errw.String())
	}
}
