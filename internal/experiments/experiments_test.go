package experiments

import (
	"strings"
	"testing"
)

// smallOpt shrinks every experiment enough for CI.
func smallOpt() Options { return Options{Scale: 16, Seed: 1, Parallelism: 4} }

func checkReport(t *testing.T, r *Report, err error, wantRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < wantRows {
		t.Fatalf("report has %d rows, want >= %d:\n%s", len(r.Rows), wantRows, r)
	}
	s := r.String()
	if !strings.Contains(s, r.Title) {
		t.Fatalf("rendered report missing title:\n%s", s)
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Columns) {
			t.Fatalf("row %v has %d cells for %d columns", row, len(row), len(r.Columns))
		}
	}
}

func TestExpTable2(t *testing.T) {
	r, err := ExpTable2(Options{Seed: 1})
	checkReport(t, r, err, 7)
}

func TestExpFig7(t *testing.T) {
	r, err := ExpFig7(smallOpt())
	checkReport(t, r, err, 2)
}

func TestExpFig8(t *testing.T) {
	r, err := ExpFig8(Options{Scale: 1, Seed: 1, Parallelism: 4})
	checkReport(t, r, err, 5)
}

func TestExpFig9(t *testing.T) {
	r, err := ExpFig9(smallOpt())
	checkReport(t, r, err, 7)
}

func TestExpFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 in -short mode")
	}
	r, err := ExpFig10(smallOpt())
	checkReport(t, r, err, 8)
}

func TestExpTable4(t *testing.T) {
	r, err := ExpTable4(smallOpt())
	checkReport(t, r, err, 3)
}

func TestExpFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 in -short mode")
	}
	r, err := ExpFig11(smallOpt())
	checkReport(t, r, err, 2)
}

func TestExpFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 in -short mode")
	}
	r, err := ExpFig12(Options{Scale: 24, Seed: 1, Parallelism: 4})
	checkReport(t, r, err, 4)
}

func TestExpEC2(t *testing.T) {
	if testing.Short() {
		t.Skip("ec2 in -short mode")
	}
	r, err := ExpEC2(Options{Scale: 24, Seed: 1, Parallelism: 4})
	checkReport(t, r, err, 3)
}

func TestExpAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	r, err := ExpAblation(smallOpt())
	checkReport(t, r, err, 10)
	if strings.Contains(r.String(), "UNEXPECTED") {
		t.Fatalf("ablation surprises:\n%s", r)
	}
}

func TestExpExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions in -short mode")
	}
	r, err := ExpExtensions(smallOpt())
	checkReport(t, r, err, 4)
	t.Log("\n" + r.String())
}

func TestReportCSV(t *testing.T) {
	r := &Report{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", "z"}},
	}
	var buf strings.Builder
	if err := r.WriteCSVTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,z\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
