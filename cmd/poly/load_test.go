package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadArgs keeps CLI tests to a few hundred milliseconds: a tiny
// ladder on the k=4 fabric, one seed per probe.
func loadArgs(extra ...string) []string {
	base := []string{
		"-k", "4", "-senders", "4", "-bytes", "16384",
		"-scenarios", "incast", "-backends", "rq",
		"-slo-fct", "2ms", "-rungs", "3", "-refine", "1", "-seeds", "1",
	}
	return append(base, extra...)
}

func TestLoadTable(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runSub("load", loadArgs(), &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"PolyLoad saturation search", "incast/polyraptor", "knee:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, out.String())
		}
	}
}

func TestLoadCSV(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runSub("load", loadArgs("-format", "csv"), &out, &errw); code != 0 {
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

func TestLoadJSONSchemaAndDeterminism(t *testing.T) {
	var a, b, errw bytes.Buffer
	if code := runSub("load", loadArgs("-format", "json"), &a, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if code := runSub("load", loadArgs("-format", "json", "-parallel", "4"), &b, &errw); code != 0 {
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

func TestLoadHistOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hists.json")
	var out, errw bytes.Buffer
	if code := runSub("load", loadArgs("-hist-out", path), &out, &errw); code != 0 {
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
// "poly load:"-prefixed message, before any simulation runs.
func TestLoadBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"stray"}},
		{"bad scenario", loadArgs("-scenarios", "nope")},
		{"bad backend", loadArgs("-backends", "quic")},
		{"bad format", loadArgs("-format", "yaml")},
		{"negative slo", loadArgs("-slo-fct", "-1ms")},
		{"negative goodput floor", loadArgs("-slo-goodput", "-2")},
		{"negative p99 ceiling", loadArgs("-p99-max", "-5ms")},
		{"zero target", loadArgs("-target", "0")},
		{"target above one", loadArgs("-target", "1.5")},
		{"inverted ladder", loadArgs("-load-min", "2", "-load-max", "1")},
		{"zero load floor", loadArgs("-load-min", "0")},
		{"one rung", loadArgs("-rungs", "1")},
		{"negative refine", loadArgs("-refine", "-1")},
		{"zero seeds", loadArgs("-seeds", "0")},
		{"odd arity", loadArgs("-k", "5")},
		{"empty scenario list", loadArgs("-scenarios", " , ")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := runSub("load", tc.args, &out, &errw)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errw.String())
			}
			if errw.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}

// TestLoadSkipsBlankScenarios: -scenarios goes through the same list
// parser as poly sweep's, so a trailing comma is not a scenario.
func TestLoadSkipsBlankScenarios(t *testing.T) {
	var want, got, errw bytes.Buffer
	if code := runSub("load", loadArgs("-format", "csv"), &want, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if code := runSub("load", loadArgs("-format", "csv", "-scenarios", "incast,"), &got, &errw); code != 0 {
		t.Fatalf("-scenarios incast, exited %d, stderr: %s", code, errw.String())
	}
	if got.String() != want.String() {
		t.Fatalf("-scenarios incast, differs from -scenarios incast:\n%s\nvs\n%s", got.String(), want.String())
	}
}

// TestGoldenReport: the default incast+shuffle knee search on rq and
// tcp reproduces, byte for byte, the golden report. Its rq results are
// those captured from polyload at commit b5526c0, before the harness
// was collapsed onto Run; the tcp results were regenerated when a new
// ACK began to lift the TCP sender's nextSeq. The report is kept as its
// SHA-256 in testdata/goldens.sha256.
func TestGoldenReport(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-scenarios", "incast,shuffle", "-backends", "rq,tcp", "-format", "json"}
	if code := runSub("load", args, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	checkDigest(t, "../../internal/harness/testdata/goldens.sha256", "polyload_incast_shuffle.json", out.Bytes())
}

// checkDigest requires the line "<sha256 of got>  name" in the
// sha256sum-format file digests, which CI checks with sha256sum -c.
// On a mismatch it keeps got in a temp file to diff.
func checkDigest(t *testing.T, digests, name string, got []byte) {
	t.Helper()
	list, err := os.ReadFile(digests)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("%x  %s\n", sha256.Sum256(got), name)
	if bytes.Contains(list, []byte(line)) {
		return
	}
	f, err := os.CreateTemp("", "*-"+name)
	if err == nil {
		_, err = f.Write(got)
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s is not in %s; the output is in %s", strings.TrimSpace(line), digests, f.Name())
}

// TestFanoutBeyondFabricIsAFlagError: a k=2 fabric has one out-of-rack
// host, so fig1a's default 3 replicas cannot be placed. This used to
// spin the replica picker forever; it must be an immediate exit 2.
func TestFanoutBeyondFabricIsAFlagError(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-k", "2", "-scenarios", "fig1a", "-backends", "rq", "-rungs", "2", "-refine", "0", "-seeds", "1"}
	if code := runSub("load", args, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "replicas") {
		t.Fatalf("error does not name the impossible fan-out: %s", errw.String())
	}
}
