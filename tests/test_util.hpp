#pragma once

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "pet/pet_matrix.hpp"
#include "prob/pmf.hpp"
#include "util/rng.hpp"

namespace taskdrop::test {

/// Pmf from an initializer list of (time, probability) impulses.
inline Pmf pmf_of(std::initializer_list<std::pair<Tick, double>> impulses,
                  Tick stride = 1) {
  return Pmf::from_impulses(
      std::vector<std::pair<Tick, double>>(impulses.begin(), impulses.end()),
      stride);
}

/// A frozen PET matrix whose cells are explicit PMFs. `cells[t][m]` is the
/// impulse list for task type t on machine type m. Deterministic cells
/// (single impulses) make hand-computed expectations exact.
inline PetMatrix pet_of(
    std::vector<std::vector<std::vector<std::pair<Tick, double>>>> cells,
    Tick stride = 1) {
  const int task_types = static_cast<int>(cells.size());
  const int machine_types = static_cast<int>(cells.front().size());
  PetMatrix pet(task_types, machine_types);
  for (int t = 0; t < task_types; ++t) {
    for (int m = 0; m < machine_types; ++m) {
      pet.set(t, m,
              Pmf::from_impulses(cells[static_cast<std::size_t>(t)]
                                      [static_cast<std::size_t>(m)],
                                 stride));
    }
  }
  pet.freeze();
  return pet;
}

/// 1 task type x 1 machine type PET with the given execution PMF.
inline PetMatrix single_cell_pet(
    std::initializer_list<std::pair<Tick, double>> impulses, Tick stride = 1) {
  return pet_of({{std::vector<std::pair<Tick, double>>(impulses.begin(),
                                                       impulses.end())}},
                stride);
}

/// Random PET with multi-bin execution PMFs: `types` task types on one
/// machine type, 1–4 impulses each at 1..16 ticks.
inline PetMatrix random_pet(Rng& rng, int types) {
  std::vector<std::vector<std::vector<std::pair<Tick, double>>>> cells;
  for (int t = 0; t < types; ++t) {
    const auto bins = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<std::pair<Tick, double>> impulses;
    double total = 0.0;
    for (int b = 0; b < bins; ++b) {
      const double w = 0.05 + rng.uniform01();
      impulses.emplace_back(rng.uniform_int(1, 16), w);
      total += w;
    }
    std::sort(impulses.begin(), impulses.end());
    for (auto& [time, p] : impulses) p /= total;
    cells.push_back({impulses});
  }
  return pet_of(std::move(cells));
}

}  // namespace taskdrop::test
