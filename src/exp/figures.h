// The paper's evaluation (§V: Tables I–II, Figs. 3–12, the headline gains)
// and the extension studies, as one registry of named experiments run by
// `kvec figure NAME [--scale tiny|small|full] [--cache DIR]`.
//
// Every experiment fixes its dataset and model seeds, so its text output
// is a deterministic function of the scale (and, with more than one
// kernel thread, of float summation order). Figures 3–7 and the headline
// project the same five curve sweeps; with a shared SweepCache they train
// them once. Experiments write only to the given stream.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "data/presets.h"
#include "exp/cache.h"

namespace kvec {

struct Experiment {
  std::string name;   // the `kvec figure` argument, e.g. "fig3"
  std::string title;  // what it reproduces, e.g. "Fig. 3: accuracy vs ..."
  std::function<void(ExperimentScale, const SweepCache&, std::ostream&)>
      run;
};

// All experiments: the tables, Figs. 3–7, the headline, Figs. 8–12, then
// the extensions. Running them in this order with one cache trains the
// curve sweeps once.
const std::vector<Experiment>& Experiments();

// The experiment called `name`, or nullptr.
const Experiment* FindExperiment(const std::string& name);

}  // namespace kvec
