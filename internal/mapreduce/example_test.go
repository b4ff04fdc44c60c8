package mapreduce_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mapreduce"
)

// The canonical first MapReduce job, on the local engine.
func ExampleLocalEngine_Run() {
	sum := func(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		out.Emit(key, []byte(strconv.Itoa(total)))
		return nil
	}
	job := &mapreduce.Job{
		Name: "wordcount",
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				out.Emit(w, []byte("1"))
			}
			return nil
		},
		Combine:    sum,
		Reduce:     sum,
		NumReduces: 1, // single partition => globally sorted output
	}
	eng := &mapreduce.LocalEngine{Parallelism: 2}
	res, err := eng.Run(context.Background(), job, []mapreduce.Pair{
		{Value: []byte("to be or not")},
		{Value: []byte("to be")},
	})
	if err != nil {
		panic(err)
	}
	var parts []string
	for _, p := range res.Output {
		parts = append(parts, fmt.Sprintf("%s=%s", p.Key, p.Value))
	}
	fmt.Println(strings.Join(parts, " "))
	fmt.Println("map input records:", res.Counters.Get(mapreduce.CtrMapInputRecords))
	// Output:
	// be=2 not=1 or=1 to=2
	// map input records: 2
}

// Conf carries typed job parameters that survive the trip to distributed
// workers (everything is a string on the wire).
func ExampleConf() {
	conf := mapreduce.Conf{}
	conf.SetFloat("dc", 1.25)
	conf.SetInt("blocks", 8)
	fmt.Println(conf.GetFloat("dc", 0), conf.GetInt("blocks", 0))
	fmt.Println("missing key default:", conf.GetInt("nope", 42))
	// Output:
	// 1.25 8
	// missing key default: 42
}
