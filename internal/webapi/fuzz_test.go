package webapi

import (
	"bytes"
	"encoding/json"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/datagen"
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
	v := cube.NewView(c)
	if err := v.SelectMember("Store", "City", 0); err != nil {
		f.Fatal(err)
	}
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
