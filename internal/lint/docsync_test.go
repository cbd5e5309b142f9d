package lint

// The docsync test: the latch hierarchy is stated as //tsb:latch
// directives on the fields themselves, and rendered for readers as the
// markdown table in docs/ARCHITECTURE.md. This test fails if the two
// disagree.

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

const archDoc = "../../docs/ARCHITECTURE.md"

// parseDocTable extracts the latch rows between the tsb:latch-table
// markers in docs/ARCHITECTURE.md.
func parseDocTable(t *testing.T) []LatchSpec {
	t.Helper()
	data, err := os.ReadFile(archDoc)
	if err != nil {
		t.Fatalf("read %s: %v", archDoc, err)
	}
	text := string(data)
	begin := strings.Index(text, "<!-- tsb:latch-table:begin -->")
	end := strings.Index(text, "<!-- tsb:latch-table:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("%s: tsb:latch-table markers missing or out of order", archDoc)
	}
	var rows []LatchSpec
	for _, line := range strings.Split(text[begin:end], "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Fatalf("%s: latch table row %q has %d cells, want 4", archDoc, line, len(cells))
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if cells[0] == "Level" || strings.HasPrefix(cells[0], "--") {
			continue // header and separator
		}
		level, err := strconv.Atoi(cells[0])
		if err != nil {
			t.Fatalf("%s: latch table row %q: bad level: %v", archDoc, line, err)
		}
		rows = append(rows, LatchSpec{Level: level, Name: cells[1], Object: cells[2], Kind: cells[3]})
	}
	return rows
}

func TestDocLatchTableInSync(t *testing.T) {
	src := make(map[string]LatchSpec)
	for _, spec := range buildFacts(loadRepo(t)).latches {
		src[spec.Object] = *spec
	}
	doc := parseDocTable(t)
	seen := make(map[string]bool)
	for i, row := range doc {
		if i > 0 && row.Level < doc[i-1].Level {
			t.Errorf("%s: latch row %s (level %d) is listed after level %d; order rows coarsest first", archDoc, row.Name, row.Level, doc[i-1].Level)
		}
		seen[row.Object] = true
		got, ok := src[row.Object]
		if !ok {
			t.Errorf("%s lists %s but the field carries no //tsb:latch directive", archDoc, row.Object)
			continue
		}
		if got != row {
			t.Errorf("%s: directive says %+v, %s says %+v", row.Object, got, archDoc, row)
		}
	}
	for obj, got := range src {
		if !seen[obj] {
			t.Errorf("%s carries //tsb:latch (%+v) but is missing from the %s table", obj, got, archDoc)
		}
	}
}
