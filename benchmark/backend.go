package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"lstore"
)

// embedded drives the root package's public API, one span per call. Each
// client owns one (the Row map is reused between calls).
type embedded struct {
	db  *lstore.DB
	tbl *lstore.Table
	row lstore.Row
}

func newEmbedded(db *lstore.DB, tbl *lstore.Table) *embedded {
	return &embedded{db: db, tbl: tbl, row: make(lstore.Row, 4)}
}

func (e *embedded) txn(tr *tracer, gets []getOp, ups []updOp) error {
	root := tr.begin(spTxn, 0)
	defer tr.end(root)

	sp := tr.begin(spBegin, 0)
	tx := e.db.Begin(lstore.ReadCommitted)
	tr.end(sp)
	for i := range gets {
		g := &gets[i]
		sp = tr.begin(spGet, 0)
		row, found, err := e.tbl.Get(tx, g.key, colNames[g.col])
		tr.end(sp)
		if err != nil {
			tx.Abort()
			return fmt.Errorf("get %d: %w", g.key, err)
		}
		g.found, g.val = found, row[colNames[g.col]].Int()
	}
	for i := range ups {
		u := &ups[i]
		clear(e.row)
		e.row["c4"], e.row["c5"] = lstore.Int(u.c4), lstore.Int(u.c5)
		e.row[colNames[u.cols[0]]] = lstore.Int(u.vals[0])
		e.row[colNames[u.cols[1]]] = lstore.Int(u.vals[1])
		sp = tr.begin(spUpdate, 0)
		err := e.tbl.Update(tx, u.key, e.row)
		tr.end(sp)
		if err != nil {
			tx.Abort()
			return fmt.Errorf("update %d: %w", u.key, err)
		}
	}
	sp = tr.begin(spCommit, 0)
	err := tx.Commit()
	tr.end(sp)
	return err
}

func (e *embedded) query(tr *tracer, q *querySpec) (queryResult, error) {
	root := tr.begin(spQuery, uint8(q.shape))
	defer tr.end(root)

	var res queryResult
	lq := e.tbl.Query()
	switch {
	case q.predCol == "":
	case q.eq:
		lq.Where(lstore.Eq(q.predCol, lstore.Int(q.lo)))
	default:
		lq.Where(lstore.Between(q.predCol, lstore.Int(q.lo), lstore.Int(q.hi)))
	}
	switch q.kind {
	case qAggregate:
		aggs := make([]lstore.Agg, len(q.aggs))
		for i, a := range q.aggs {
			if a.op == "count" {
				aggs[i] = lstore.Count()
			} else {
				aggs[i] = lstore.Sum(a.col)
			}
		}
		ar, err := lq.Aggregate(aggs...)
		if err != nil {
			return res, err
		}
		for i, a := range q.aggs {
			if a.op == "count" {
				res.agg[i] = ar.Rows(i)
			} else {
				res.agg[i] = ar.Int(i)
			}
		}
	case qRows:
		err := lq.Select(q.sel...).Rows(func(rv *lstore.RowView) bool {
			res.n++
			for i := range q.sel {
				res.sums[i] += rv.IntAt(i)
			}
			return true
		})
		if err != nil {
			return res, err
		}
	case qKeys:
		keys, err := lq.Keys()
		if err != nil {
			return res, err
		}
		res.n = int64(len(keys))
		for _, k := range keys {
			res.sums[0] += k
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------

// wire drives internal/server over loopback HTTP on one keep-alive
// connection. Requests are assembled by hand and responses decoded with
// encoding/json: the client's share of a round trip is part of what a user
// of the wire sees.
type wire struct {
	hc   *http.Client
	base string
	body bytes.Buffer

	reqs, reqBytes, respBytes int64
}

func newWire(base string) *wire {
	return &wire{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

func (w *wire) close() { w.hc.CloseIdleConnections() }

// post sends w.body and returns the response body of a 200; any other
// status (409 conflict, 429 shed, 5xx) is an error.
func (w *wire) post(path string) ([]byte, error) {
	w.reqs++
	w.reqBytes += int64(w.body.Len())
	resp, err := w.hc.Post(w.base+path, "application/json", bytes.NewReader(w.body.Bytes()))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	w.respBytes += int64(len(b))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (w *wire) int(v int64) { w.body.Write(strconv.AppendInt(w.body.AvailableBuffer(), v, 10)) }

func (w *wire) txn(tr *tracer, gets []getOp, ups []updOp) error {
	root := tr.begin(spHTTPTxn, 0)
	defer tr.end(root)

	b := &w.body
	b.Reset()
	b.WriteString(`{"ops":[`)
	for i, g := range gets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"op":"get","table":"` + tableName + `","key":`)
		w.int(g.key)
		b.WriteString(`,"cols":["` + colNames[g.col] + `"]}`)
	}
	for _, u := range ups {
		b.WriteString(`,{"op":"update","table":"` + tableName + `","key":`)
		w.int(u.key)
		b.WriteString(`,"set":{"c4":`)
		w.int(u.c4)
		b.WriteString(`,"c5":`)
		w.int(u.c5)
		for i, c := range u.cols {
			b.WriteString(`,"` + colNames[c] + `":`)
			w.int(u.vals[i])
		}
		b.WriteString(`}}`)
	}
	b.WriteString(`]}`)

	raw, err := w.post("/v1/txn")
	if err != nil {
		return err
	}
	var resp struct {
		Committed bool `json:"committed"`
		Results   []struct {
			Found bool             `json:"found"`
			Row   map[string]int64 `json:"row"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decode /v1/txn response: %w", err)
	}
	if !resp.Committed || len(resp.Results) != len(gets)+len(ups) {
		return fmt.Errorf("/v1/txn: committed=%v with %d results for %d ops", resp.Committed, len(resp.Results), len(gets)+len(ups))
	}
	for i := range gets {
		r := resp.Results[i]
		gets[i].found, gets[i].val = r.Found, r.Row[colNames[gets[i].col]]
	}
	return nil
}

// query supports the aggregate shapes only: the wire has no Keys verb and
// serve-htap asks for none.
func (w *wire) query(tr *tracer, q *querySpec) (queryResult, error) {
	root := tr.begin(spHTTPQuery, uint8(q.shape))
	defer tr.end(root)

	var res queryResult
	if q.kind != qAggregate {
		return res, fmt.Errorf("wire: query kind %d not supported", q.kind)
	}
	b := &w.body
	b.Reset()
	b.WriteString(`{"table":"` + tableName + `"`)
	if q.predCol != "" {
		b.WriteString(`,"where":[{"col":"` + q.predCol + `","op":"between","value":`)
		w.int(q.lo)
		b.WriteString(`,"value2":`)
		w.int(q.hi)
		b.WriteString(`}]`)
	}
	b.WriteString(`,"aggregate":[`)
	for i, a := range q.aggs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"op":"` + a.op + `","col":"` + a.col + `"}`)
	}
	b.WriteString(`]}`)

	raw, err := w.post("/v1/query")
	if err != nil {
		return res, err
	}
	var resp struct {
		Aggregates []struct {
			Value int64 `json:"value"`
			Rows  int64 `json:"rows"`
		} `json:"aggregates"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return res, fmt.Errorf("decode /v1/query response: %w", err)
	}
	if len(resp.Aggregates) != len(q.aggs) {
		return res, fmt.Errorf("/v1/query: %d aggregates for %d asked", len(resp.Aggregates), len(q.aggs))
	}
	for i, a := range q.aggs {
		res.agg[i] = resp.Aggregates[i].Value
		if a.op == "count" {
			res.agg[i] = resp.Aggregates[i].Rows
		}
	}
	return res, nil
}
