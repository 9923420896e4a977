package core

import (
	"strconv"

	"github.com/tabula-db/tabula/internal/obs"
)

// appendMetrics are the maintenance-path instruments of one cube. They
// are recorded at the end of Append — never on the query hot path — so
// a single atomic-pointer load gates the whole set.
type appendMetrics struct {
	appends  *obs.Counter   // tabula_append_total{cube}
	rows     *obs.Counter   // tabula_append_rows_total{cube}
	duration *obs.Histogram // tabula_append_duration_seconds{cube}
	shards   *obs.Histogram // tabula_append_shards_touched{cube}
}

// RegisterMetrics registers the cube's observability surface into reg
// under the given cube name and arms the append-path instruments:
//
//	tabula_append_total{cube}               appends published
//	tabula_append_rows_total{cube}          rows ingested
//	tabula_append_duration_seconds{cube}    append latency histogram
//	tabula_append_shards_touched{cube}      shards-touched histogram
//	tabula_cube_version{cube}               snapshot version gauge
//	tabula_cube_shards{cube}                fixed shard count gauge
//	tabula_cube_iceberg_cells{cube}         iceberg cell inventory gauge
//	tabula_cube_shard_generation{cube,shard} per-shard generation gauges
//	tabula_wire_cells{cube}                 samples holding wire bytes
//	tabula_wire_resident_bytes{cube}        those bytes (see WireStats)
//
// Gauges are sampled at scrape time from the published snapshot (one
// atomic load per sample), so registration adds zero cost to queries
// and appends alike. A nil registry is a no-op, matching the obs
// package's disabled mode; registering the same cube name again hands
// the sampled series to the new instance.
func (t *Tabula) RegisterMetrics(reg *obs.Registry, cube string) {
	if reg == nil {
		return
	}
	lbl := obs.Label{Name: "cube", Value: cube}
	t.metrics.Store(&appendMetrics{
		appends:  reg.Counter("tabula_append_total", "Appends published, by cube.", lbl),
		rows:     reg.Counter("tabula_append_rows_total", "Rows ingested by Append, by cube.", lbl),
		duration: reg.Histogram("tabula_append_duration_seconds", "Append wall time, by cube.", obs.LatencyBuckets, lbl),
		shards:   reg.Histogram("tabula_append_shards_touched", "Shards whose generation one append bumped, by cube.", obs.ShardBuckets, lbl),
	})
	reg.GaugeFunc("tabula_cube_version", "Cube-wide snapshot version (1 after Build/Load, +1 per append).",
		func() float64 { return float64(t.Generation()) }, lbl)
	reg.GaugeFunc("tabula_cube_shards", "Fixed shard count of the cube.",
		func() float64 { return float64(t.NumShards()) }, lbl)
	reg.GaugeFunc("tabula_cube_iceberg_cells", "Iceberg cells across all shards of the published snapshot.",
		func() float64 { return float64(t.snap.Load().numIcebergCells()) }, lbl)
	reg.GaugeFunc("tabula_wire_cells", "Samples of the published snapshot whose wire bytes are materialized.",
		func() float64 { return float64(t.WireStats().CellsFilled) }, lbl)
	reg.GaugeFunc("tabula_wire_resident_bytes", "Materialized wire bytes resident on the published snapshot's samples.",
		func() float64 { return float64(t.WireStats().Bytes) }, lbl)
	for i := 0; i < t.NumShards(); i++ {
		reg.GaugeFunc("tabula_cube_shard_generation", "Per-shard monotonic generation of the published snapshot.",
			func() float64 {
				sn := t.snap.Load()
				return float64(sn.shards[i].generation)
			}, lbl, obs.Label{Name: "shard", Value: strconv.Itoa(i)})
	}
}

// observeAppend records one published append into the armed instruments
// (no-op when RegisterMetrics never ran).
func (t *Tabula) observeAppend(st *AppendStats) {
	m := t.metrics.Load()
	if m == nil {
		return
	}
	m.appends.Inc()
	m.rows.Add(uint64(st.RowsAppended))
	m.duration.Observe(st.Elapsed.Seconds())
	m.shards.Observe(float64(len(st.ShardsTouched)))
}

// WireStats describes the wire bytes materialized on the samples of the
// published snapshot. They are serving state the cube carries, not part
// of the sampling cube's footprint: Stats.TotalBytes excludes them.
type WireStats struct {
	// CellsFilled counts the samples — persisted, global and empty —
	// that have been served at least once and hold their bytes.
	CellsFilled int
	// Bytes is the compressed size those samples hold.
	Bytes int64
}

// WireStats walks the published snapshot's samples. A sample that no
// snapshot references any more is not counted: its bytes went with it.
func (t *Tabula) WireStats() WireStats {
	sn := t.snap.Load()
	var st WireStats
	for _, sam := range append(sn.distinctSamples(), sn.global, sn.empty) {
		if seg := sam.wire.Filled(); seg != nil {
			st.CellsFilled++
			st.Bytes += int64(len(seg.Deflate))
		}
	}
	return st
}
