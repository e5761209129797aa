// Renderings of one exec plan (core/plan.h), for explain_analyze, which
// collects its plan once, before the materialization collapses the DAG.
#pragma once

#include <string>

#include "core/plan.h"
#include "obs/explain.h"

namespace flashr::obs {

std::string explain_json(const exec::dag_info& plan);
plan_summary summarize(const exec::dag_info& plan);

}  // namespace flashr::obs
