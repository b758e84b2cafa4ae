package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// rowHash is a content hash of one row: every cell's kind, null flag and
// value.
func rowHash(r minidb.Row) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, v := range r {
		b[0] = byte(v.Kind)
		if v.Null {
			b[0] |= 0x80
		}
		binary.LittleEndian.PutUint64(b[1:9], uint64(v.I))
		binary.LittleEndian.PutUint64(b[9:17], math.Float64bits(v.F))
		h.Write(b[:])
		h.Write([]byte(v.S))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// digest is an order-independent row-set checksum: the row count and the
// wrapping sum of row hashes.
type digest struct {
	rows int
	sum  uint64
}

func (d *digest) add(rows []minidb.Row) {
	for _, r := range rows {
		d.rows++
		d.sum += rowHash(r)
	}
}

// referenceDigest scans the relation with minidb's own executor.
func referenceDigest(cat *minidb.Catalog, table string, columns []string) (digest, error) {
	it, err := cat.Execute(minidb.Query{Table: table, Columns: columns})
	if err != nil {
		return digest{}, err
	}
	var d digest
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			return d, nil
		}
		if err != nil {
			return d, err
		}
		d.add([]minidb.Row{r})
	}
}

// gate is the correctness gate's outcome: checks attempted and failed,
// with a reason for each failure.
type gate struct {
	attempted, failed int
	notes             []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// verify is the untimed correctness pass through the same tiers and
// transport as the timed load: the delivered rows must checksum equal to
// minidb's own scan, and on the ingest workload the side table must hold
// exactly the acked rows with no gateway failover. corrupt perturbs the
// expected checksum, to prove the gate trips.
func verify(ctx context.Context, w *workload, t *tiers, wr *writer, corrupt bool) gate {
	var g gate
	want, err := referenceDigest(t.cats[0], "customer", w.columns)
	if err != nil {
		g.check(false, "reference scan: %v", err)
		return g
	}
	if corrupt {
		want.sum ^= 1
	}
	got, err := transportDigest(ctx, w, t)
	g.check(err == nil, "transport pass: %v", err)
	g.check(got == want, "rows through %s: %d rows checksum %016x, minidb scan: %d rows checksum %016x",
		w.name, got.rows, got.sum, want.rows, want.sum)

	if wr != nil {
		tbl, err := t.cats[0].Table(sideTable)
		if err != nil {
			g.check(false, "side table: %v", err)
			return g
		}
		side, err := referenceDigest(t.cats[0], sideTable, nil)
		g.check(err == nil, "side table scan: %v", err)
		g.check(tbl.RowCount() == wr.acked && wr.confirmed == wr.acked && side.sum == wr.sum,
			"side table holds %d rows (checksum %016x), writer acked %d (checksum %016x), server confirmed %d",
			tbl.RowCount(), side.sum, wr.acked, wr.sum, wr.confirmed)
	}
	if t.gw != nil {
		n := t.gw.Failovers()
		g.check(n == 0, "gateway performed %d failovers", n)
	}
	return g
}

// transportDigest pulls the whole relation once through the workload's
// entry tier and transport. The push pass uses RunVector with one
// stream, the public API that hands push-delivered rows back.
func transportDigest(ctx context.Context, w *workload, t *tiers) (digest, error) {
	var d digest
	cl, err := client.New(t.entry, wire.Binary{}, &http.Client{Transport: loopbackTransport(nil), Timeout: 2 * time.Minute})
	if err != nil {
		return d, err
	}
	if !w.push {
		_, err := pullQuery(ctx, cl, w.query(), core.NewStatic(w.sizeHi), nil, d.add)
		return d, err
	}
	cl.SetPush(client.PushConfig{Enabled: true})
	vc, err := core.NewVector(core.DefaultPushVectorConfig())
	if err != nil {
		return d, err
	}
	var mu sync.Mutex
	_, err = cl.RunVector(ctx, w.query(), vc, client.VectorRunConfig{
		MaxStreams: 1,
		Handle: func(_ minidb.Schema, rows []minidb.Row) error {
			mu.Lock()
			defer mu.Unlock()
			d.add(rows)
			return nil
		},
	})
	return d, err
}
