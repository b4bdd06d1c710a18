package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// compareLedgers prints one row per (end-to-end metric, workload) of ledger
// b against ledger a and reports whether any row is worse. A row is
//
//	ok          b's median is no worse than a's by more than the bound
//	worse       it is
//	unresolved  the run-to-run spread of either side exceeds the bound, so
//	            the two medians cannot be told apart at that resolution
func compareLedgers(w io.Writer, benchPath, aPath, bPath string) (worse bool, err error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readLedger(aPath)
	if err != nil {
		return false, err
	}
	b, err := readLedger(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  (%s, %d CPUs, %s, commit %s)\n", aPath, a.Machine.CPU, a.Machine.NProc, a.Machine.Go, a.Machine.Commit)
	fmt.Fprintf(w, "b: %s  (%s, %d CPUs, %s, commit %s)\n", bPath, b.Machine.CPU, b.Machine.NProc, b.Machine.Go, b.Machine.Commit)
	fmt.Fprintf(w, "%-20s %-13s %13s %13s %8s %8s %8s %6s  %s\n",
		"metric", "workload", "a median", "b median", "worse by", "spread a", "spread b", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		for _, wl := range bf.Workloads {
			sa, okA := a.Summary[wl.Name][m.Name]
			sb, okB := b.Summary[wl.Name][m.Name]
			if !okA || !okB {
				continue
			}
			// Positive = b is worse, as a share of a's median.
			by := (sb.Median - sa.Median) / math.Abs(sa.Median)
			if m.Better == "higher" {
				by = -by
			}
			verdict := "ok"
			switch {
			case sa.Spread > m.Bound || sb.Spread > m.Bound:
				verdict = "unresolved"
			case by > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-20s %-13s %13.6g %13.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				m.Name, wl.Name, sa.Median, sb.Median, by*100, sa.Spread*100, sb.Spread*100, m.Bound*100, verdict)
		}
	}
	return worse, nil
}
