package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: "run"
// re-executes its own executable for each pass, which in a test is this
// binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "pass" || os.Args[1] == "micro") {
		os.Exit(cli(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	if code := cli([]string{"run", "-workload", "stream-cwn", "-passes", "2", "-trace", "0", "-out", dir}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	text := out.String()
	for _, m := range endToEnd {
		re := regexp.MustCompile(`(?m)^stream-cwn ` + regexp.QuoteMeta(m.Name) + ` [0-9.e+-]+ ` + regexp.QuoteMeta(m.Unit) + ` \(median; .*n=2\)$`)
		if !re.MatchString(text) {
			t.Errorf("no line for %s with unit %s in:\n%s", m.Name, m.Unit, text)
		}
	}
	if !strings.Contains(text, "stream-cwn error_rate 0 ratio") {
		t.Errorf("error_rate is not 0:\n%s", text)
	}

	lines := strings.Split(strings.TrimSpace(text), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the report: %v", err)
	}
	if !rep.Correct || rep.Attempted != 2 || rep.Failed != 0 || len(rep.Metrics) != len(endToEnd) {
		t.Errorf("report %+v", rep)
	}
	if _, err := readResults(dir + "/results.json"); err != nil {
		t.Error(err)
	}
}

// TestRunTracedSmoke checks a traced set reports every per-layer metric
// and self shares that sum to 100%.
func TestRunTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the microbenchmarks")
	}
	var out bytes.Buffer
	dir := t.TempDir()
	if code := cli([]string{"run", "-workload", "stream-cwn", "-passes", "1", "-trace", "1", "-out", dir}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	res, err := readResults(dir + "/results.json")
	if err != nil {
		t.Fatal(err)
	}
	layers := res.Workloads[0].Layers
	var shares float64
	for _, m := range perLayer {
		v, ok := layers[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s: got %+v", m.Name, v)
		}
		if strings.HasSuffix(m.Name, ".self_share") {
			shares += v.Value
		}
	}
	if shares < 99 || shares > 101 {
		t.Errorf("self shares sum to %g%%", shares)
	}
	for _, a := range res.Workloads[0].Artifacts {
		if _, err := os.Stat(a); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json describes
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, program has %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, program has %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
