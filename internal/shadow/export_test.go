package shadow

// The serve-backed tests in the external test package share this package's
// test fixtures.
var (
	TrainedFramework = trainedFramework
	LabeledStream    = labeledStream
)
