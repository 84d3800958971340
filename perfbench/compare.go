package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads a results.json.
func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareResults prints, for each workload in both files and each
// end-to-end metric, both medians and quartiles, the change of B against
// A, and the verdict under the metric's bound. It returns how many
// pairs read "worse".
func compareResults(a, b *resultsFile, w io.Writer) int {
	worse := 0
	fmt.Fprintf(w, "%-12s %-13s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range endToEnd {
				sa, sb := wa.Metrics[m.Name].summary, wb.Metrics[m.Name].summary
				v := verdict(sa, sb, m)
				if v == "worse" {
					worse++
				}
				fmt.Fprintf(w, "%-12s %-13s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%% %5.0f%%  %s\n",
					wa.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
					100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound, v)
			}
			fmt.Fprintf(w, "%-12s failed runs: A %d of %d, B %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	return worse
}
