package lstore_test

import (
	"encoding/json"
	"testing"

	"lstore"
)

// frozenStatsFields are the counter names the benchmark under benchmark/
// reads from the JSON form of Table.Stats(), Table.CompressionStats() and
// DB.WALInfo(). It looks them up by name, so a rename would not break its
// build: the metric would silently read as missing. New counters are
// additive; these names do not change.
var frozenStatsFields = map[string][]string{
	"Stats": {
		"Merges", "MergedTailRecords", "MergeQueueDepth", "Seals",
		"ScanFastSlots", "ScanSlowSlots", "ScanWordsDecoded", "ScanWordsSkipped",
		"PoolHits", "PoolMisses", "PoolEvictions", "PoolCapBytes", "WWConflicts",
	},
	"CompressionStats": {"PhysicalWords"},
	"WALInfo":          {"Attached"},
}

func TestFrozenStatsFieldNames(t *testing.T) {
	db := lstore.Open()
	defer db.Close()
	tbl, err := db.CreateTable("t", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	snapshots := map[string]any{
		"Stats":            tbl.Stats(),
		"CompressionStats": tbl.CompressionStats(),
		"WALInfo":          db.WALInfo(),
	}
	for name, fields := range frozenStatsFields {
		b, err := json.Marshal(snapshots[name])
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		var got map[string]any
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("decode %s: %v", name, err)
		}
		for _, f := range fields {
			if _, ok := got[f]; !ok {
				t.Errorf("%s() JSON lacks frozen field %q: %s", name, f, b)
			}
		}
	}
}
