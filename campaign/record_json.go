package campaign

import (
	"strconv"
	"sync"
	"time"

	"virtualwire/internal/fastjson"
)

// appendJSONRecord appends rec's compact JSON encoding to b: the same
// bytes encoding/json produces for the record's fields (declaration
// order, omitted zero values, HTML-safe escaping), written without
// reflection and, given a buffer with room, without allocating (only a
// non-zero MeanRTT or MaxInterArrival costs its duration string). A NaN
// or infinite float fails with *json.UnsupportedValueError, as
// json.Marshal does.
func appendJSONRecord(b []byte, rec *RunRecord) ([]byte, error) {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	b = append(b, `,"label":`...)
	b = fastjson.AppendString(b, rec.Label)
	if rec.Config != "" {
		b = append(b, `,"config":`...)
		b = fastjson.AppendString(b, rec.Config)
	}
	if rec.Workload != "" {
		b = append(b, `,"workload":`...)
		b = fastjson.AppendString(b, rec.Workload)
	}
	b = append(b, `,"seed_index":`...)
	b = strconv.AppendInt(b, int64(rec.SeedIndex), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, rec.Seed, 10)
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(rec.Attempts), 10)
	b = append(b, `,"outcome":`...)
	b = fastjson.AppendString(b, rec.Outcome)
	if rec.Error != "" {
		b = append(b, `,"error":`...)
		b = fastjson.AppendString(b, rec.Error)
	}
	b = appendJSONInt(b, `,"delivered_bytes":`, rec.DeliveredBytes)
	if rec.GoodputMbps != 0 {
		var err error
		b = append(b, `,"goodput_mbps":`...)
		if b, err = fastjson.AppendFloat(b, rec.GoodputMbps); err != nil {
			return nil, err
		}
	}
	b = appendJSONInt(b, `,"retransmissions":`, rec.Retransmissions)
	b = appendJSONInt(b, `,"sent":`, rec.Sent)
	b = appendJSONInt(b, `,"received":`, rec.Received)
	b = appendJSONDuration(b, `,"mean_rtt":`, rec.MeanRTT)
	b = appendJSONDuration(b, `,"max_inter_arrival":`, rec.MaxInterArrival)
	if rec.Report != nil {
		var err error
		b = append(b, `,"report":`...)
		if b, err = rec.Report.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendJSONInt writes an omitempty int field.
func appendJSONInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(b, key...)
	return strconv.AppendInt(b, int64(v), 10)
}

// appendJSONDuration writes an omitempty Duration field in
// Duration.MarshalJSON's string form.
func appendJSONDuration(b []byte, key string, d Duration) []byte {
	if d == 0 {
		return b
	}
	b = append(b, key...)
	return fastjson.AppendString(b, time.Duration(d).String())
}

// recordBufs recycles MarshalJSON's scratch buffers, so a record costs
// one allocation: the exactly sized copy handed to the caller.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// MarshalJSON implements json.Marshaler with the collector's append
// encoder, so json.Marshal callers get the sink's bytes.
func (r RunRecord) MarshalJSON() ([]byte, error) {
	bp := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(bp)
	b, err := appendJSONRecord((*bp)[:0], &r)
	if err != nil {
		return nil, err
	}
	*bp = b
	return append([]byte(nil), b...), nil
}
