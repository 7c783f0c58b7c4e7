package webapi

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"sdwp/internal/cube"
	"sdwp/internal/jsonenc"
	"sdwp/internal/obs"
)

// AppendResult appends res as json.Marshal encodes it — the body of
// /api/query without json.Encoder's trailing newline — straight from the
// Result's rows: no reflection, no intermediate buffer. A nil slice is
// null, as encoding/json writes it. A NaN or infinite value fails with
// the error encoding/json returns for it, and dst is then garbage.
func AppendResult(dst []byte, res *cube.Result) ([]byte, error) {
	if res == nil {
		return append(dst, "null"...), nil
	}
	dst = appendStrings(append(dst, `{"groupCols":`...), res.GroupCols)
	dst = appendStrings(append(dst, `,"aggCols":`...), res.AggCols)
	dst = append(dst, `,"rows":`...)
	if res.Rows == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for r := range res.Rows {
			row := &res.Rows[r]
			if r > 0 {
				dst = append(dst, ',')
			}
			dst = appendStrings(append(dst, `{"groups":`...), row.Groups)
			var err error
			if dst, err = appendFloats(append(dst, `,"values":`...), row.Values); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"scannedFacts":`...), int64(res.ScannedFacts), 10)
	dst = strconv.AppendInt(append(dst, `,"matchedFacts":`...), int64(res.MatchedFacts), 10)
	return append(appendCost(append(dst, `,"cost":`...), &res.Cost), '}'), nil
}

// AppendBatch appends the body of /api/query/batch — {"results": [...]} —
// as json.Marshal encodes it, each entry by AppendResult.
func AppendBatch(dst []byte, results []*cube.Result) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if results == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendResult(dst, res); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendStrings appends a string slice as encoding/json does (nil is null).
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloats appends a float slice as encoding/json does (nil is null),
// failing on the first value encoding/json refuses.
func appendFloats(dst []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendFloat(dst, f)
	}
	return append(dst, ']'), nil
}

// appendCost appends a cost vector with obs.QueryCost's field names, in
// its field order.
func appendCost(dst []byte, c *obs.QueryCost) []byte {
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{`{"factsScanned":`, c.FactsScanned},
		{`,"factsMatched":`, c.FactsMatched},
		{`,"cellsTouched":`, c.CellsTouched},
		{`,"bitmapBytes":`, c.BitmapBytes},
		{`,"keyColBytes":`, c.KeyColBytes},
		{`,"sharedSavedBytes":`, c.SharedSavedBytes},
		{`,"cpuNs":`, c.CPUNs},
		{`,"sharedSavedNs":`, c.SharedSavedNs},
		{`,"cacheCreditNs":`, c.CacheCreditNs},
	} {
		dst = strconv.AppendInt(append(dst, f.name...), f.v, 10)
	}
	return append(dst, '}')
}
