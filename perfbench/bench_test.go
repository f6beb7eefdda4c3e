package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fx10/internal/workloads"
	"fx10/internal/x10"
)

// streamDigest hashes the first n requests of every client's stream.
func streamDigest(t *testing.T, c *corpus, workload string, seed int64, clients, n int) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for cl := 0; cl < clients; cl++ {
		s := newStream(c, workload, seed, cl)
		for i := 0; i < n; i++ {
			r, err := s.next()
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(r.Op + "\x00" + r.Path + "\x00"))
			h.Write(r.Body)
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func TestSameSeedSameRequests(t *testing.T) {
	c, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		n := 40
		if w == wHugeCold {
			n = 6
		}
		a := streamDigest(t, c, w, 5, 2, n)
		if b := streamDigest(t, c, w, 5, 2, n); a != b {
			t.Errorf("%s: seed 5 gave two different request sequences", w)
		}
		if b := streamDigest(t, c, w, 6, 2, n); a == b {
			t.Errorf("%s: seeds 5 and 6 gave the same request sequence", w)
		}
	}
}

func TestColdRequestsAreDistinct(t *testing.T) {
	c, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{wPaper13Cold, wHugeCold} {
		seen := map[string]bool{}
		for cl := 0; cl < 2; cl++ {
			s := newStream(c, w, 3, cl)
			for i := 0; i < 20; i++ {
				r, err := s.next()
				if err != nil {
					t.Fatal(err)
				}
				if seen[r.Source] {
					t.Fatalf("%s: client %d request %d repeats an earlier program", w, cl, i)
				}
				seen[r.Source] = true
			}
		}
	}
}

// TestEmptyMethodSuffix checks that appending emptyMethodX10 to a
// rendered unit is what x10.Render gives for the unit with the empty
// method added.
func TestEmptyMethodSuffix(t *testing.T) {
	c, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for i, pp := range c.paper {
		u := workloads.All()[i].Unit()
		name := "perfbench_t" + strconv.Itoa(i)
		if got, want := pp.x10+emptyMethodX10(name), x10.Render(withEmptyMethod(u, name)); got != want {
			t.Errorf("%s: suffix render differs from x10.Render", pp.name)
		}
	}
}

func TestReportDigestMasksIterationsOnly(t *testing.T) {
	a := []byte(`{"programHash":"ab","iterations":{"slabels":2,"level1":3,"level2":4},"labels":5}`)
	b := []byte(`{"programHash":"ab","iterations":{"slabels":9,"level1":9,"level2":9},"labels":5}`)
	c := []byte(`{"programHash":"ab","iterations":{"slabels":2,"level1":3,"level2":4},"labels":6}`)
	if reportDigest(a) != reportDigest(b) {
		t.Error("iteration counts changed the digest")
	}
	if reportDigest(a) == reportDigest(c) {
		t.Error("a label-count change did not change the digest")
	}
}

func TestRefusesMoreClientsThanNproc(t *testing.T) {
	_, err := parseOptions([]string{"-fx10d", "x", "-workdir", "w", "-workload", wFleetHot,
		"-clients", strconv.Itoa(runtime.NumCPU() + 1)})
	if err == nil {
		t.Fatal("accepted more clients than nproc")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload briefly,
// untraced and traced, through the same entry point the command uses,
// and checks that the result line carries exactly the metrics
// BENCHMARK.json names, with their units, and that every answer was
// correct. huge-cold, which BENCHMARK.json does not list, is run too:
// it is the benchmark's huge-tier check.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fx10d and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !known(w.Name) {
			t.Fatalf("BENCHMARK.json workload %q, benchmark knows %v", w.Name, workloadNames)
		}
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "fx10d")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fx10d")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fx10d: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var out bytes.Buffer
			args := []string{"-fx10d", bin, "-workdir", dir, "-workload", w, "-seed", "3",
				"-seconds", "1", "-trace", trace}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not a result: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", w, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace %s: metric %s has unit %q, BENCHMARK.json says %q", w, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %s: metric %s is not in BENCHMARK.json", w, trace, name)
				}
			}
		}
	}
}
