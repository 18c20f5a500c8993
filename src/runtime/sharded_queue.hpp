// Another name for JobQueue, kept only for the serving benchmark's
// frozen sources (servebench/), which include this header and name both
// types; nothing else may use it.
#pragma once

#include "runtime/job_queue.hpp"

namespace dsra::runtime {

using ShardedJobQueue = JobQueue;

}  // namespace dsra::runtime
