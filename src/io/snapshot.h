#ifndef IUAD_IO_SNAPSHOT_H_
#define IUAD_IO_SNAPSHOT_H_

/// \file snapshot.h
/// Versioned binary persistence for a fitted DisambiguationResult — the
/// bridge between the batch pipeline and the long-running incremental path
/// (Sec. V-E): fit once, save, and any later process reloads the model in
/// milliseconds instead of re-running the two-stage pipeline.
///
/// One format, version 3. The payload is sharded by name block so a large
/// corpus never needs one contiguous checksummed payload: the graph slice,
/// occurrence slice, and read-side state of each serving shard
/// (shard/placement.h decides ownership, so sections mirror the
/// shard::ShardRouter partition) live in their own independently
/// checksummed section, and sections are verified and parsed in parallel
/// at load. Layout (all integers host-endian, doubles/floats raw
/// IEEE-754):
///
///   offset  field
///   ------  ---------------------------------------------------------
///   0       magic "IUADSNAP" (8 bytes)
///   8       format version (u32, kSnapshotFormatVersion)
///   12      corpus fingerprint (u64, PaperDatabase::Fingerprint)
///   20      payload size in bytes (u64, everything after the header)
///   28      section-table checksum (u64, FNV-1a)
///   36      header checksum (u32, FNV-1a over bytes [0, 36))
///   40      section table — num_sections (u32), then per section
///           {kind u32, size u64, checksum u64} — followed by the section
///           payloads back-to-back in table order.
///
/// Sections: kind 0 = common (config, global vertex count, the interned
/// author-name table, embeddings, fitted model, stats), kind 1 = shard
/// slice (owned vertices with explicit ids, owned edges, owned occurrence
/// assignments). Every distinct author name is stored once, in the common
/// section's table; vertex records and occurrence entries reference it by
/// dense i32 id, matching the in-memory util::StringInterner layout of
/// graph::CollabGraph. Corruption of one section is detected by that
/// section's checksum and reported by section index without poisoning the
/// others (pinned in tests/snapshot_test.cpp).
///
/// Verification order: magic, header checksum, format version, payload
/// size, then the corpus fingerprint against the caller's PaperDatabase
/// (the O(1) pairing check — a snapshot is only meaningful next to the
/// exact corpus it was fitted on — comes before any payload pass), then the
/// table and section checksums. FNV-1a is computed over public bytes, so
/// the parser does not trust a file that passes them: name ids must fall
/// inside the name table, vertex ids must cover [0, vertex count) exactly
/// once, and the name table must hold no duplicate. Corruption and
/// structurally hostile files surface as IoError (a duplicate name-table
/// entry as InvalidArgument from graph::CollabGraph::Restore), foreign
/// files and any other version as InvalidArgument, and a wrong corpus as
/// FailedPrecondition.
///
/// Round-trip contract (pinned by tests/snapshot_test.cpp): feeding the
/// same paper stream through IncrementalDisambiguator::AddPaper on a
/// reloaded snapshot produces byte-identical assignments to the
/// never-serialized in-memory result. Two deliberate omissions:
/// IuadConfig::pair_label_oracle (a std::function) does not survive and is
/// null after load, and the word2vec training-side state (context vectors,
/// negative table) is dropped — the embeddings serve lookups only.

#include <cstdint>
#include <string>

#include "core/config.h"
#include "core/pipeline.h"
#include "data/paper_database.h"
#include "util/status.h"

namespace iuad::io {

/// The one format version SaveSnapshot writes and LoadSnapshot reads.
constexpr uint32_t kSnapshotFormatVersion = 3;

/// A reloaded snapshot: the fitted state plus the configuration it was
/// built with.
struct Snapshot {
  core::DisambiguationResult result;
  core::IuadConfig config;
};

/// Writes `result` (+ the config that produced it) to `path`, stamped with
/// `db`'s fingerprint, with one shard section per config.num_shards (at
/// least one). Overwrites an existing file.
iuad::Status SaveSnapshot(const std::string& path,
                          const data::PaperDatabase& db,
                          const core::DisambiguationResult& result,
                          const core::IuadConfig& config);

/// Reads a snapshot written by SaveSnapshot and rebuilds the full
/// DisambiguationResult against `db` (which must fingerprint-match the
/// database the snapshot was saved with).
iuad::Result<Snapshot> LoadSnapshot(const std::string& path,
                                    const data::PaperDatabase& db);

}  // namespace iuad::io

#endif  // IUAD_IO_SNAPSHOT_H_
