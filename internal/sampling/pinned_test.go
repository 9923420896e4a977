package sampling

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// pinnedTable is 600 points in five overlapping clusters, one in nine of
// them an exact duplicate of one of three locations (ties in distance).
func pinnedTable(seed int64) *dataset.Table {
	r := rand.New(rand.NewSource(seed))
	tbl := dataset.NewTable(dataset.Schema{{Name: "p", Type: dataset.Point}})
	for i := 0; i < 600; i++ {
		c := float64(r.Intn(5))
		p := geo.Point{X: -74 + c*0.05 + r.NormFloat64()*0.01, Y: 40.6 + c*0.03 + r.NormFloat64()*0.01}
		if i%9 == 4 {
			p = geo.Point{X: -74 + float64(r.Intn(3))*0.1, Y: 40.7}
		}
		tbl.MustAppendRow(dataset.PointValue(p))
	}
	return tbl
}

// The greedy sampler's picks for the heatmap loss are pinned row for row:
// the lists below were produced by the evaluator that called geo.Distance
// per point through a closure, before its loops were specialised per
// metric and moved to squared-distance comparison. Every pick depends on
// float sums taken in a fixed order, so any change to what is summed, or
// in which order, shows up here as a different row.
func TestGreedyHeatmapPicksPinned(t *testing.T) {
	thetas := map[geo.Metric]float64{geo.Euclidean: 0.004, geo.Manhattan: 0.005, geo.Haversine: 400}
	for _, pin := range []struct {
		seed   int64
		metric geo.Metric
		rows   []int32
	}{
		{1, geo.Euclidean, []int32{96, 467, 343, 484, 225, 472, 215, 303, 355, 31, 505, 405, 563, 119, 540, 221, 543, 270, 207, 114, 2, 259, 597, 298, 451, 213, 469, 312, 244, 446, 9, 200, 491, 113, 422, 249, 566, 255, 88, 17, 8, 84, 36, 495, 146, 80, 394, 124, 57}},
		{1, geo.Manhattan, []int32{410, 559, 567, 484, 395, 454, 86, 170, 400, 424, 552, 229, 152, 161, 378, 278, 252, 270, 582, 14, 207, 575, 597, 465, 450, 541, 264, 186, 451, 446, 579, 212, 528, 113, 201, 533, 591, 259, 242, 17, 237, 495, 502, 84, 268, 88, 574, 558, 280, 142}},
		{1, geo.Haversine, []int32{96, 467, 343, 225, 241, 274, 277, 283, 303, 229, 494, 405, 551, 413, 285, 320, 414, 349, 371, 270, 327, 219, 396, 221, 568, 63, 300, 298, 312, 14, 113, 275, 280, 456, 249, 422, 271, 17, 36, 261, 84, 80, 8, 255, 447, 482, 57}},
		{2, geo.Euclidean, []int32{221, 552, 323, 368, 90, 175, 202, 504, 177, 130, 234, 144, 290, 183, 579, 307, 410, 440, 162, 560, 389, 200, 118, 7, 36, 277, 212, 123, 236, 376, 340, 570, 151, 451, 516, 153, 152, 254, 392, 397, 566, 182, 333, 132, 412, 577, 312, 258, 443, 414, 69}},
		{2, geo.Manhattan, []int32{39, 420, 5, 51, 204, 526, 505, 284, 177, 355, 283, 412, 352, 519, 582, 307, 172, 60, 558, 50, 162, 264, 460, 389, 451, 583, 37, 516, 78, 468, 574, 376, 536, 584, 471, 230, 586, 478, 397, 286, 291, 182, 523, 485, 312, 159, 439, 542, 464, 417, 303}},
		{2, geo.Haversine, []int32{221, 288, 252, 90, 368, 121, 346, 177, 540, 139, 34, 65, 81, 437, 361, 458, 107, 183, 100, 290, 511, 7, 560, 212, 389, 376, 123, 516, 333, 244, 119, 36, 18, 19, 340, 277, 453, 471, 110, 250, 254, 412, 132, 578, 8, 258, 222, 312, 586, 356}},
		{3, geo.Euclidean, []int32{244, 7, 314, 570, 248, 184, 496, 292, 251, 454, 369, 84, 20, 303, 446, 15, 277, 540, 210, 458, 551, 214, 275, 358, 287, 116, 368, 398, 536, 123, 225, 504, 511, 397, 27, 60, 552, 402, 549, 491, 410, 196, 537, 476, 153, 393, 565, 435, 327, 11, 70, 10, 564}},
		{3, geo.Manhattan, []int32{550, 295, 87, 407, 105, 58, 483, 247, 349, 484, 175, 498, 137, 303, 519, 442, 269, 548, 214, 533, 73, 222, 575, 64, 540, 525, 591, 593, 478, 108, 287, 102, 62, 241, 393, 380, 12, 216, 411, 209, 581, 536, 410, 397, 194, 552, 213, 491, 504, 356, 144, 327, 438, 10}},
		{3, geo.Haversine, []int32{244, 494, 108, 248, 570, 112, 517, 496, 48, 274, 369, 308, 533, 443, 502, 117, 73, 261, 303, 269, 214, 511, 575, 442, 150, 383, 415, 358, 27, 552, 275, 287, 397, 62, 423, 56, 380, 313, 306, 177, 491, 113, 332, 323, 70, 327, 362, 37, 393, 434, 599}},
	} {
		got, err := Greedy(loss.NewHeatmap("p", pin.metric), dataset.FullView(pinnedTable(pin.seed)), thetas[pin.metric], DefaultGreedyOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, pin.rows) {
			t.Errorf("seed %d %v: picked %v, pinned %v", pin.seed, pin.metric, got, pin.rows)
		}
	}
}
