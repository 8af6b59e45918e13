// bncg — Basic Network Creation Games (SPAA 2010 reproduction).
//
// Umbrella header: includes the entire public API. Fine for applications;
// library-internal code includes the specific headers it needs.
//
//   #include "bncg.hpp"
//   using namespace bncg;
//
// Layers (see DESIGN.md for the full inventory):
//   util/  — RNG, tables, timers, preconditions
//   graph/ — Graph, BFS, APSP, metrics, connectivity, powers, uniformity,
//            subgraphs, io, isomorphism
//   gen/   — classic families, the paper's constructions, Cayley graphs,
//            projective planes, random families, tree enumeration
//   core/  — swaps, usage costs, certifiers, dynamics, tree fast path,
//            k-stability, search, lemmas, the α-game baseline, PoA,
//            and the Instance/RunConfig facade (start there)
#pragma once

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include "graph/graph.hpp"
#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/masked_repair.hpp"
#include "graph/row_cache.hpp"
#include "graph/apsp.hpp"
#include "graph/metrics.hpp"
#include "graph/connectivity.hpp"
#include "graph/subgraph.hpp"
#include "graph/power.hpp"
#include "graph/distance_uniformity.hpp"
#include "graph/io.hpp"
#include "graph/isomorphism.hpp"

#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/cayley.hpp"
#include "gen/projective.hpp"
#include "gen/random.hpp"
#include "gen/trees_enum.hpp"

#include "core/swap.hpp"
#include "core/usage_cost.hpp"
#include "core/dist_provider.hpp"
#include "core/equilibrium.hpp"
#include "core/swap_engine.hpp"
#include "core/instance.hpp"
#include "core/certify_sharded.hpp"
#include "core/certify_wire.hpp"
#include "core/search_state.hpp"
#include "core/dynamics.hpp"
#include "core/tree_game.hpp"
#include "core/kstability.hpp"
#include "core/search.hpp"
#include "core/lemmas.hpp"
#include "core/classic_game.hpp"
#include "core/poa.hpp"
