// Package experiments contains the harness that regenerates every figure
// of the paper's evaluation (§V) plus the repository's ablations:
// workload construction, the memory-equalised method lineup, runtime and
// accuracy runners, and plain-text/CSV rendering of the resulting tables.
package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: the rows the corresponding paper
// figure plots.
type Table struct {
	// ID is the experiment identifier ("fig2a", "abl-lambda", …).
	ID string
	// Title describes the experiment, mirroring the figure caption.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the cells, already formatted.
	Rows [][]string
	// Notes carry workload provenance (profile, scale, seed, pair
	// counts) so results are interpretable on their own.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a provenance note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
		_, err := io.WriteString(w, sb.String())
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderJSON writes the table as a machine-readable JSON document: the id,
// title, notes, and one object per row keyed by the header names. Unlike
// the text renderers it round-trips through jq without parsing column
// widths.
func (t *Table) RenderJSON(w io.Writer) error {
	rows := make([]map[string]string, len(t.Rows))
	for i, row := range t.Rows {
		m := make(map[string]string, len(row))
		for j, c := range row {
			if j < len(t.Header) {
				m[t.Header[j]] = c
			}
		}
		rows[i] = m
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ID    string              `json:"id"`
		Title string              `json:"title"`
		Notes []string            `json:"notes,omitempty"`
		Rows  []map[string]string `json:"rows"`
	}{t.ID, t.Title, t.Notes, rows})
}

// RenderCSV writes the table as CSV (header + rows; notes as # comments).
func (t *Table) RenderCSV(w io.Writer) error {
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows) // flushes
}
