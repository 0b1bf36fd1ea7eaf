package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSelf runs every workload at -quick scale, untraced and traced,
// through run.sh — the command BENCHMARK.json names — and checks the
// output contract: stdout is one JSON object, and the metric names and
// units it carries are exactly the ones BENCHMARK.json declares.
func TestSelf(t *testing.T) {
	decl, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has no bound in (0, 0.25]", m.Name)
		}
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(decl.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %v", len(decl.Workloads), names)
	}
	for i, w := range decl.Workloads {
		if w.Name != names[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, names[i])
		}
	}

	for _, name := range names {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("bash", "run.sh", "--quick", "--seconds", "2", "--seed", "7",
				"--workload", name, "--trace", []string{"0", "1"}[trace])
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", name, trace, err, stderr.String())
			}
			var res result
			dec := json.NewDecoder(&stdout)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil || dec.More() {
				t.Fatalf("%s trace %d: stdout is not one JSON object: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v, %d failed of %d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				if !nameRE.MatchString(m) {
					t.Errorf("%s: metric name %q", name, m)
				}
				if unit, ok := want[m]; !ok || unit != v.Unit {
					t.Errorf("%s trace %d: emitted %s in %q, BENCHMARK.json declares %q (declared: %v)", name, trace, m, v.Unit, unit, ok)
				}
			}
			for m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace %d: BENCHMARK.json declares %s, the run did not emit it", name, trace, m)
				}
			}
			if trace == 0 && !strings.Contains(stderr.String(), "latency samples") {
				t.Errorf("%s: the percentile sample count is not printed:\n%s", name, stderr.String())
			}
		}
	}
}
