#pragma once

#include <algorithm>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>

#include "exp/figures.hpp"
#include "util/flags.hpp"

namespace taskdrop::benchmain {

/// The flags every figure binary takes. Any other flag is rejected before
/// the run starts: a typo must not silently run the default experiment.
inline constexpr const char* kFigureFlags[] = {"full", "trials", "divisor",
                                               "seed", "csv"};

inline void print_usage(const char* argv0) {
  std::cout << "usage: " << argv0
            << " [--full] [--trials=N] [--divisor=N] [--seed=N] [--csv]\n"
            << "  --full       paper scale: divisor 1, 30 trials"
               " (also REPRO_FULL=1)\n"
            << "  --trials=N   trials per grid cell (default 8)\n"
            << "  --divisor=N  divide the paper's task counts by N"
               " (default 10)\n"
            << "  --seed=N     base seed (default 42)\n"
            << "  --csv        print the table as CSV\n";
}

/// Shared driver for the per-figure bench binaries: parses --full /
/// --trials / --divisor / --seed / --csv, runs the figure generator
/// (declared as a SweepSpec in src/exp/figures.cpp) and prints the table.
/// --help prints the flags and exits 0 without running. An unknown flag or
/// a flag-validation error (e.g. --trials=0) reports to stderr and exits 1.
template <typename FigureFn>
int run_figure(int argc, char** argv, const char* title, FigureFn figure) {
  try {
    const Flags flags(argc, argv);
    if (flags.has("help")) {
      print_usage(argv[0]);
      return 0;
    }
    for (const std::string& key : flags.keys()) {
      if (std::find(std::begin(kFigureFlags), std::end(kFigureFlags), key) ==
          std::end(kFigureFlags)) {
        std::cerr << argv[0] << ": unknown flag --" << key
                  << " (see --help)\n";
        return 1;
      }
    }
    const FigureScale scale = FigureScale::from_flags(flags);
    std::cout << title << '\n'
              << "scale: divisor=" << scale.tasks_divisor
              << " trials=" << scale.trials << " seed=" << scale.seed
              << "\n\n";
    const Table table = figure(scale);
    if (flags.get_bool("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 1;
  }
}

}  // namespace taskdrop::benchmain
