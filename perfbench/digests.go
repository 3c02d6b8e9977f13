package main

// recordedDigests are the SHA-256 digests of each family's
// Surface.WriteCSV output for defaultSeed. A change that alters any
// simulated statistic alters these and fails the sweep workloads.
var recordedDigests = map[string]map[string]string{
	"sweep-classic": {
		"gas":    "4f7cd390991b07a5c9845ac887068b330a7e49b5baa3a09b5975416319ebfb1c",
		"gshare": "1565efd3c13708d60229bb81f2d46e5f1400549088a01ae1062a9e1d2c896dcf",
		"path":   "00e527c7b01a75ce9b37a382ef8c96330d134519402a1438beba7b7e44cf3c31",
	},
	"sweep-modern": {
		"tage":       "fc6bb78e948fb9d03bf735a93bfa8fd26b099ed37fbfc5d0175e175c8d140f29",
		"perceptron": "124820949e874afde1fbcd3ed12a2af8a30d517695edab601967ee8ce7ab2cc6",
		"tournament": "b940eb9391b67d67e3da09113931c4c1f290637e42877464ede0051854d1d0c5",
	},
}
