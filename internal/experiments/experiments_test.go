// Smoke tests running the experiment harness at its smallest scale under
// plain `go test`, so drift in the experiment builders (which full CI only
// exercises in the bench job) fails every test run.
package experiments_test

import (
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func TestE1RequestCostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E1RequestCost(experiments.Smoke)
	if err != nil {
		t.Fatalf("E1 smoke: %v", err)
	}
	if table.Rows() == 0 {
		t.Fatal("E1 produced no rows")
	}
}

func TestE10ChaosSurvivalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E10ChaosSurvival(experiments.Smoke)
	if err != nil {
		t.Fatalf("E10 smoke: %v", err)
	}
	if table.Rows() == 0 {
		t.Fatal("E10 produced no rows")
	}
}

// cells returns a table's formatted rows, keyed by column name, through the
// JSON form isis-bench records.
func cells(t *testing.T, table *metrics.Table) []map[string]string {
	t.Helper()
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Columns []string
		Rows    [][]string
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	out := make([]map[string]string, len(doc.Rows))
	for i, row := range doc.Rows {
		out[i] = make(map[string]string, len(row))
		for j, cell := range row {
			out[i][doc.Columns[j]] = cell
		}
	}
	return out
}

func TestE12MemberScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E12MemberScaling(experiments.Smoke)
	if err != nil {
		t.Fatalf("E12 smoke: %v", err)
	}
	rows := cells(t, table)
	if len(rows) != 1 {
		t.Fatalf("E12 smoke rows = %d, want 1 (one size)", len(rows))
	}
	// One report acknowledges a whole prefix of casts.
	perCast, err := strconv.ParseFloat(rows[0]["stability/cast"], 64)
	if err != nil || perCast >= 1 {
		t.Errorf("stability reports per cast = %q (%v), want < 1", rows[0]["stability/cast"], err)
	}
}

func TestE11LossyThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E11LossyThroughput(experiments.Smoke)
	if err != nil {
		t.Fatalf("E11 smoke: %v", err)
	}
	rows := cells(t, table)
	if len(rows) != 2 {
		t.Fatalf("E11 smoke rows = %d, want 2 (1%% and 5%% loss)", len(rows))
	}
	for _, row := range rows {
		if row["delivered frac"] != "1" {
			t.Errorf("at %s loss the group delivered %s of the offered casts, want all", row["loss"], row["delivered frac"])
		}
	}
}
