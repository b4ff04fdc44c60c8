package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/points"
)

// WriteCSV writes the data set as CSV: one row per point, coordinates in
// order; when labels exist a final "label" column is appended.
func WriteCSV(w io.Writer, ds *points.Dataset) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	for i, p := range ds.Points {
		row := make([]string, 0, len(p.Pos)+1)
		for _, x := range p.Pos {
			row = append(row, strconv.FormatFloat(x, 'g', -1, 64))
		}
		if ds.Labels != nil {
			row = append(row, strconv.Itoa(ds.Labels[i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a data set from CSV. When hasLabel is true the last
// column is read as an integer ground-truth label; all other columns must
// be floats. IDs are assigned densely in row order.
func ReadCSV(r io.Reader, name string, hasLabel bool) (*points.Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	ds := &points.Dataset{Name: name}
	if hasLabel {
		ds.Labels = []int{}
	}
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", row, err)
		}
		nCoord := len(rec)
		if hasLabel {
			nCoord--
		}
		if nCoord < 1 {
			return nil, fmt.Errorf("dataset: row %d has no coordinates", row)
		}
		pos := make(points.Vector, nCoord)
		for j := 0; j < nCoord; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", row, j, err)
			}
			pos[j] = v
		}
		if hasLabel {
			l, err := strconv.Atoi(rec[len(rec)-1])
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d label: %w", row, err)
			}
			ds.Labels = append(ds.Labels, l)
		}
		ds.Points = append(ds.Points, points.Point{ID: int32(row), Pos: pos})
		row++
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadCSVFile reads a data set from path.
func ReadCSVFile(path, name string, hasLabel bool) (*points.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, name, hasLabel)
}
