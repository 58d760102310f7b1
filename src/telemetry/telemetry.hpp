// Umbrella header for the telemetry subsystem (DESIGN.md §10):
//
//   Sampler      tick-driven ring-buffered time series + window aggregates
//   NodeProbe    per-node glue the simulator layers feed
//   TraceWriter  Chrome trace-event JSON of management-plane activity
//   Reducer      hierarchical per-node -> group series aggregation
//   GroupSeriesBuilder  the Reducer's tree, streamed as nodes sample
//
// Everything is runtime-disableable (a branch on a bool on the hot path).
#pragma once

#include "telemetry/probe.hpp"
#include "telemetry/reducer.hpp"
#include "telemetry/ring_buffer.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace_writer.hpp"
