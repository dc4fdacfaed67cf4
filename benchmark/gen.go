package main

import (
	"fmt"

	"lstore"
)

// The generator owns the load: the table's shape, every initial cell, and
// the answers the read-only shapes must return. It lives here, not in
// internal/workload, so an engine PR cannot change what is measured.
//
// Column shapes are fixed because optimisations depend on them:
//
//	id      0..n-1, the primary key, inserted in order
//	c1      id/1024 — clustered with the key (RLE/FOR, zone-map friendly)
//	c2      64 distinct values, shuffled (dictionary; secondary index)
//	c3      uniform 40-bit (wide FOR)
//	c4, c5  the invariant pair: c4 = base4+v, c5 = base5-v for the row's
//	        version v, so c4+c5 is constant per row under any update
//	c6..c9  uniform 20-bit
const (
	tableName  = "bench"
	numCols    = 10 // id + c1..c9
	c1Cluster  = 1024
	c2Distinct = 64
)

var colNames = [numCols]string{"id", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"}

func schemaColumns() []lstore.Column {
	cols := make([]lstore.Column, numCols)
	for i, n := range colNames {
		cols[i] = lstore.Column{Name: n, Type: lstore.Int64}
	}
	return cols
}

func tableOptions() lstore.TableOptions {
	return lstore.TableOptions{SecondaryIndexes: []string{"c2"}}
}

func createTable(db *lstore.DB, opts lstore.TableOptions) (*lstore.Table, error) {
	return db.CreateTable(tableName, lstore.NewSchema("id", schemaColumns()...), opts)
}

// mix is splitmix64's finalizer: a stateless hash, so any cell is a pure
// function of (seed, key, column) and nothing has to be stored to check it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream; each client owns one.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s += 0x9e3779b97f4a7c15; return mix(r.s) }

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

type gen struct {
	seed uint64
	n    int64

	// Answers, filled by precompute.
	invAll    int64   // Σ (c4+c5) over the table — constant under updates
	invPrefix []int64 // invPrefix[k] = Σ (c4+c5) over ids < k
	sumC3     int64
	c6Prefix  []int64 // c6Prefix[b] = Σ c6 over rows with c1 < b
	c2Count   [c2Distinct]int64
	c2SumC3   [c2Distinct]int64
	c2SumID   [c2Distinct]int64
}

// cell is the initial value of column col (1..9) of row key.
func (g *gen) cell(key int64, col int) int64 {
	h := mix(g.seed*0x2545f4914f6cdd1d + uint64(key)*numCols + uint64(col))
	switch col {
	case 1:
		return key / c1Cluster
	case 2:
		return int64(h % c2Distinct)
	case 3:
		return int64(h & (1<<40 - 1))
	case 4, 5:
		return int64(h & (1<<30 - 1))
	default:
		return int64(h & (1<<20 - 1))
	}
}

// pair is the (c4, c5) a row holds at version v.
func (g *gen) pair(key int64, v uint32) (int64, int64) {
	return g.cell(key, 4) + int64(v), g.cell(key, 5) - int64(v)
}

func newGen(seed uint64, rows int64) (*gen, error) {
	if rows < 4*c1Cluster || rows&(rows-1) != 0 {
		return nil, fmt.Errorf("rows must be a power of two, at least %d", 4*c1Cluster)
	}
	g := &gen{seed: seed, n: rows}
	g.invPrefix = make([]int64, rows+1)
	g.c6Prefix = make([]int64, rows/c1Cluster+1)
	for k := int64(0); k < rows; k++ {
		g.invPrefix[k+1] = g.invPrefix[k] + g.cell(k, 4) + g.cell(k, 5)
		c3 := g.cell(k, 3)
		g.sumC3 += c3
		g.c6Prefix[k/c1Cluster+1] += g.cell(k, 6)
		v := g.cell(k, 2)
		g.c2Count[v]++
		g.c2SumC3[v] += c3
		g.c2SumID[v] += k
	}
	for b := 1; b < len(g.c6Prefix); b++ {
		g.c6Prefix[b] += g.c6Prefix[b-1]
	}
	g.invAll = g.invPrefix[rows]
	return g, nil
}

// load inserts every row in key order, one transaction per batch of 4096
// (the engine's default range size, so a commit never straddles more than
// two ranges).
func (g *gen) load(db *lstore.DB, tbl *lstore.Table) error {
	const batch = 4096
	row := make(lstore.Row, numCols)
	for lo := int64(0); lo < g.n; lo += batch {
		tx := db.Begin(lstore.ReadCommitted)
		for k := lo; k < lo+batch && k < g.n; k++ {
			row["id"] = lstore.Int(k)
			for c := 1; c < numCols; c++ {
				row[colNames[c]] = lstore.Int(g.cell(k, c))
			}
			if err := tbl.Insert(tx, row); err != nil {
				tx.Abort()
				return fmt.Errorf("load: insert %d: %w", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("load: commit at %d: %w", lo, err)
		}
	}
	return nil
}
