package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck runs the workload 2K times, as separate processes like the
// driver does, assigning runs alternately to two sets A and B (run i of
// each set uses seed+i), and prints per gated metric both medians, their
// relative difference and each set's quartile spread beside the bound.
func selfCheck(sp spec, k int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	var sets [2]map[string][]float64
	sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
	for i := 0; i < 2*k; i++ {
		line, err := runChild(exe, sp.name, seed+int64(i/2), seconds)
		if err != nil {
			return err
		}
		if !line.Correct {
			return fmt.Errorf("run %d failed verification (%d of %d ops)", i, line.Failed, line.Attempted)
		}
		for name, v := range line.Metrics {
			sets[i%2][name] = append(sets[i%2][name], v.Value)
		}
		fmt.Fprintf(os.Stderr, "selfcheck %s: run %d/%d done\n", sp.name, i+1, 2*k)
	}
	fmt.Printf("selfcheck %s K=%d seeds %d..%d\n", sp.name, k, seed, seed+int64(k)-1)
	fmt.Printf("| metric | unit | median A | median B | diff | spread A | spread B | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, d := range endToEndMetrics {
		a, b := sets[0][d.name], sets[1][d.name]
		ma, mb := median(a), median(b)
		fmt.Printf("| %s | %s | %.4f | %.4f | %.2f%% | %.2f%% | %.2f%% | %.0f%% |\n", d.name, d.unit, ma, mb,
			100*(mb-ma)/ma, 100*quartileSpread(a), 100*quartileSpread(b), 100*bounds[d.name])
	}
	return nil
}

func runChild(exe, workload string, seed int64, seconds float64) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("child run: %w", err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("child's last line is not the result object: %w", err)
	}
	return line, nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json from the root of the checkout
// (where run.sh runs the program) or from the benchmark's own directory.
func readBenchmarkFile() (benchmarkFile, error) {
	var f benchmarkFile
	err := readJSON("BENCHMARK.json", &f)
	if os.IsNotExist(err) {
		err = readJSON("../BENCHMARK.json", &f)
	}
	return f, err
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}

func loadBounds() (map[string]float64, error) {
	f, err := readBenchmarkFile()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
