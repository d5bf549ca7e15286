// trace-phase-span: TaskPhase::kReduce never becomes a span.
const auto phase = TaskPhase::kMap;
