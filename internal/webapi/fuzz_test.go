package webapi

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/datagen"
	"sdwp/internal/obs"
)

// FuzzQuerySpec fuzzes the query wire path: arbitrary bytes are decoded
// as a /api/query body exactly as the handler decodes them (unknown
// fields rejected), translated by toCubeQuery, and compiled against a
// tiny warehouse. Nothing on the way may panic, and every query that
// compiles must also execute — over the whole table and over a
// personalized view — without panicking.
func FuzzQuerySpec(f *testing.F) {
	for _, seed := range []string{
		`{"session":"s","fact":"Sales","aggregates":[{"agg":"COUNT"}]}`,
		`{"session":"s","fact":"Sales","groupBy":[{"dimension":"Store","level":"City"}],` +
			`"aggregates":[{"measure":"UnitSales","agg":"SUM"}]}`,
		`{"session":"s","fact":"Sales","groupBy":[{"dimension":"Store","level":"City"}],` +
			`"aggregates":[{"measure":"UnitSales","agg":"SUM"}],"baseline":true}`,
		`{"session":"s","fact":"Sales","baseline":true,` +
			`"groupBy":[{"dimension":"Product","level":"Family"}],` +
			`"aggregates":[{"measure":"UnitSales","agg":"SUM"}],` +
			`"filters":[{"dimension":"Store","level":"City","attr":"population","op":">","value":1000000}],` +
			`"orderBy":{"agg":0,"desc":true},"limit":3}`,
		`{"session":"s","fact":"Sales","aggregates":[{"agg":"COUNT"}],` +
			`"filters":[{"dimension":"Store","level":"City","attr":"population","op":"~","value":1}]}`,
		`{"session":"s","fact":"Sales","aggregates":[{"agg":"MEDIAN"}]}`,
		`{"session":"s","fact":"Ghost","aggregates":[{"agg":"COUNT"}]}`,
		`{"session":"s","fact":"Sales","aggregates":[{"agg":"COUNT"}],"limit":7}`,
		`{"session":"s","fact":"Sales","aggregates":[{"measure":"UnitSales","agg":"AVG"}],` +
			`"orderBy":{"agg":3},"limit":-1}`,
		`{"session":"s","fact":"Sales","groupBy":[{"dimension":"Store","level":"City"},` +
			`{"dimension":"Store","level":"City"}],"aggregates":[{"measure":"StoreCost","agg":"MIN"}]}`,
		`{"session":"s","fact":"Sales","aggregates":[{"agg":"COUNT"}],` +
			`"filters":[{"dimension":"Store","level":"City","attr":"name","op":"=","value":"x"},` +
			`{"dimension":"Store","level":"City","attr":"population","op":"<=","value":null}]}`,
		`{"session":"s","fact":"Sales","aggregates":[{"agg":"COUNT"}],"bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := datagen.Default()
	cfg.Cities = 6
	cfg.Stores = 12
	cfg.Customers = 8
	cfg.Sales = 60
	cfg.TrainLines = 2
	ds, err := datagen.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	c := ds.Cube
	b := cube.NewView(c).Builder()
	if err := b.SelectMember("Store", "City", 0); err != nil {
		f.Fatal(err)
	}
	v := b.View()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req queryRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		q, err := req.toCubeQuery()
		if err != nil {
			return
		}
		if _, err := c.Compile(q); err != nil {
			return
		}
		if _, err := c.Execute(q, nil); err != nil {
			t.Fatalf("compiled query failed to execute: %v", err)
		}
		if _, err := c.Execute(q, v); err != nil {
			t.Fatalf("compiled query failed to execute over a view: %v", err)
		}
	})
}

// FuzzAppendResult checks AppendResult and AppendBatch against
// encoding/json: fuzz bytes pick a Result's shape — nil or empty column
// headers and rows, rows without groups or values, a batch around it,
// nil entries — and fill its strings and values. The bytes must equal
// json.Marshal's, and a value encoding/json refuses must fail with its
// error.
func FuzzAppendResult(f *testing.F) {
	values := []float64{0, math.Copysign(0, -1), 1, -7, 1e-6, 9.999999999999999e-7, 1e15 - 1, -(1e15 - 1), 1e15,
		999999999999999.9, 1 << 53, 1<<53 + 2, 1e21, 999999999999999900000, 1e20, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, 0.1, 123.456, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "Store 7", "(none)", `<&>"\`, "café", "  ", "\xff\xfe", "a\x00\b\f\n\r\t\x1f\x7f", "\xe2\x80"}
	for i, x := range values {
		f.Add(uint8(i*37), strs[i%len(strs)], strs[(i+3)%len(strs)], math.Float64bits(x), math.Float64bits(values[(i+5)%len(values)]))
	}
	f.Fuzz(func(t *testing.T, shape uint8, s1, s2 string, b1, b2 uint64) {
		x, y := math.Float64frombits(b1), math.Float64frombits(b2)
		bit := func(k uint) bool { return shape>>k&1 == 1 }
		res := &cube.Result{ScannedFacts: int(b1 >> 40), MatchedFacts: int(b2 >> 40),
			Cost: obs.QueryCost{FactsScanned: int64(b1), CPUNs: -int64(b2 >> 1), CacheCreditNs: int64(shape)}}
		if bit(0) {
			res.GroupCols = []string{s1, s2}
		} else if bit(1) {
			res.GroupCols = []string{}
		}
		if bit(2) {
			res.AggCols = []string{s2}
		}
		switch shape >> 3 & 3 {
		case 1:
			res.Rows = []cube.Row{}
		case 2:
			res.Rows = []cube.Row{{Groups: []string{s1}, Values: []float64{x, y}}}
		case 3:
			res.Rows = []cube.Row{{Values: []float64{y}}, {Groups: []string{s2, s1}}, {Groups: []string{}, Values: []float64{}}}
		}
		var v any = res
		var got []byte
		var err error
		if bit(5) {
			batch := batchQueryResponse{Results: []*cube.Result{res}}
			if bit(6) {
				batch.Results = append(batch.Results, nil, res)
			}
			if bit(7) {
				batch.Results = nil
			}
			v = batch
			got, err = AppendBatch([]byte("x"), batch.Results)
		} else {
			got, err = AppendResult([]byte("x"), res)
		}
		want, jerr := json.Marshal(v)
		switch {
		case jerr != nil && (err == nil || err.Error() != jerr.Error()):
			t.Fatalf("encoding/json fails with %v, the appender with %v", jerr, err)
		case jerr == nil && err != nil:
			t.Fatalf("the appender fails with %v where encoding/json encodes %s", err, want)
		case jerr == nil && !bytes.Equal(got[1:], want):
			t.Fatalf("appended %s\nencoding/json %s", got[1:], want)
		}
	})
}
