package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke builds the benchmark and the daemon, runs every workload of
// BENCHMARK.json at toy scale, untraced and traced, from the repository
// root, and checks that each run passes its output checks and prints
// exactly the declared metrics with their units. It then checks that a
// committed digest gates the run: the true digest passes, a tampered one
// fails it. It takes 15 to 30 s, so it runs under -short too.
func TestSmoke(t *testing.T) {
	bin := t.TempDir()
	for pkg, name := range map[string]string{".": "leakybench", "./leakyref": "leakyref", "repro/cmd/leakyfed": "leakyfed"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	out, expected := t.TempDir(), t.TempDir()
	run := func(workload string, trace int) (summary, string, error) {
		cmd := exec.Command(filepath.Join(bin, "leakybench"), "--workload", workload, "--seed", "1",
			"--seconds", "1", "--trace", fmt.Sprint(trace), "--scale", "smoke", "--out", out, "--expected", expected)
		cmd.Dir = ".."
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var sum summary
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); jerr != nil {
			return sum, stdout.String(), fmt.Errorf("%v; no summary line: %v\n%s", err, jerr, stderr.String())
		}
		if err != nil {
			err = fmt.Errorf("%v\n%s", err, stderr.String())
		}
		return sum, stdout.String(), err
	}

	for _, w := range decl.Workloads {
		for trace, want := range [][]metricDecl{decl.EndToEnd, decl.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				sum, stdout, err := run(w.Name, trace)
				if err != nil || !sum.Correct {
					t.Fatalf("run failed (correct=%v): %v", sum.Correct, err)
				}
				if sum.Attempted < 1 || sum.Failed != 0 {
					t.Errorf("attempted %d, failed %d", sum.Attempted, sum.Failed)
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(sum.Metrics), len(want))
				}
				for _, m := range want {
					if !metricName.MatchString(m.Name) {
						t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
					}
					got, ok := sum.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(stdout, fmt.Sprintf("%s %s ", w.Name, m.Name)) {
						t.Errorf("no %q line on stdout", w.Name+" "+m.Name)
					}
				}
			})
		}
	}

	t.Run("expected digests gate the run", func(t *testing.T) {
		var samples struct {
			Repetitions []repResult `json:"repetitions"`
		}
		blob, err := os.ReadFile(filepath.Join(out, "sweep-space.samples.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &samples); err != nil {
			t.Fatal(err)
		}
		digests := samples.Repetitions[0].Digests
		write := func(d map[string]string) {
			blob, err := json.Marshal(map[string]map[string]string{"sweep-space": d})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(expected, "expected_seed1.json"), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(digests)
		if sum, _, err := run("sweep-space", 0); err != nil || !sum.Correct {
			t.Fatalf("the run's own digests failed it: %v", err)
		}
		tampered := map[string]string{}
		for k, v := range digests {
			tampered[k] = strings.Repeat("0", len(v))
		}
		write(tampered)
		if sum, _, err := run("sweep-space", 0); err == nil || sum.Correct {
			t.Fatalf("a tampered digest passed: exit error %v, correct %v", err, sum.Correct)
		}
	})
}
