(** Explicit engine contexts: the one place executor settings live.

    An {!t} bundles one complete engine: the optimisation
    configuration ({!config}), a private {!Plan_cache} instance, and
    an execution-pool handle.  A solve runs under the engine passed to
    it ([Driver.run ?engine]) or installed with {!with_current}, so
    two engines with different settings can solve concurrently from
    separate domains — the prerequisite for the multi-tenant solver
    service ([Mg_serve.Serve]).

    A config is immutable once its engine exists.  To change a
    setting, {!derive} a reconfigured engine (or use
    [Wl.with_config], which derives from the current engine and
    installs the result for the extent of a thunk).  To read one, ask
    the current engine: [(Engine.config (Engine.current ())).threads]. *)

type opt_level =
  | O0  (** Materialise everything; one multiplication per stencil term. *)
  | O1  (** + coefficient factoring (27 mults → 4 for NAS-MG stencils). *)
  | O2  (** + with-loop folding, staged kernels (cfun), buffer reuse. *)
  | O3  (** + residue-class generator splitting for strided producers. *)

type config = {
  opt_level : opt_level;
  threads : int;  (** Execution-pool size ([>= 1]; 1 = sequential). *)
  par_threshold : int;  (** Minimum part cardinality for parallel execution (16384). *)
  split_threshold : int;
      (** Minimum part cardinality for generator splitting during
          folding (2048); smaller consumers materialise their
          producers.  Tests of the splitting machinery set it to 0. *)
  line_buffers : bool;
      (** Line-buffered box-stencil kernels: per-row plane sums reused
          across the inner loop, the Fortran port's resid/psinv
          technique. *)
  cfun : bool;
      (** Staged kernel compilation (effective at O2+): bodies no fixed
          kernel recognises become {!Cfun} closures instead of the
          interpreted generic nest. *)
  native : bool;
      (** AOT native backend: emit C for staged kernels, compile to
          shared objects, [dlopen] at solve time (effective at O2+;
          degrades to [cfun]/generic when the toolchain refuses). *)
  native_cache : string option;
      (** Shared-object cache directory for the native backend;
          [None] resolves to ["_mg_native"] at settings time. *)
  reuse : bool;
      (** Buffer-reuse analysis (effective at O2+): a fully covered
          sweep over a dying operand writes through its buffer — SAC's
          update-in-place. *)
  pooling : bool;
      (** Draw buffers from the per-domain {!Mempool} arenas; [false]
          allocates every buffer fresh (the ablation baseline). *)
  sched : Mg_smp.Sched_policy.t;  (** Chunk shape for parallel parts. *)
  backend : Backend.t;  (** Piece scheduler: the real pool or the tracing simulator. *)
}

val default_config : config
(** The literal defaults (O3, 1 thread, pooling on) — independent of
    the environment. *)

val config_of_env : ?getenv:(string -> string option) -> unit -> config
(** {!default_config} overridden by the environment: [MG_PROCS]
    (thread count, [>= 1]), [MG_NATIVE], [MG_REUSE], [MG_POOLING]
    (booleans: [0]/[off]/[false]/[no] and
    [1]/[on]/[true]/[yes]), and [MG_NATIVE_CACHE] (the AOT
    shared-object cache directory; blank is ignored).  This is the
    one place environment variables are parsed; pass [~getenv] to
    test the parsing hermetically. *)

val kernel_tier : [ `Generic | `Cfun | `Native ] -> config -> config
(** Select the kernel tier for bodies no fixed kernel recognises:
    [`Generic] (interpreted nest: [cfun] and [native] off), [`Cfun]
    (staged closures) or [`Native] (AOT shared objects, with [cfun]
    kept on underneath as the degradation target). *)

type t
(** One engine: a config, a private plan cache, an execution pool. *)

val create : ?config:config -> ?share_cache:t -> unit -> t
(** A fresh engine with its own (lazily spawned, owned) domain pool.
    Default config: {!config_of_env}.  Registered in {!all} until
    {!shutdown}.

    By default the engine also gets its own {!Plan_cache};
    [~share_cache:parent] instead aliases [parent]'s cache — the
    multi-tenant serving combination {!derive} cannot express: plans
    compiled by any sibling replay for all of them (the cache is
    internally mutexed and keys carry the optimisation fingerprint,
    so cross-domain, cross-config sharing is sound) while every
    sibling still owns a private execution pool.  Statistics
    accumulate in the shared instance.  Shutting down a sibling never
    drops the shared cache. *)

val derive : t -> (config -> config) -> t
(** A cheap reconfiguration: shares the parent's plan cache (keys
    carry the optimisation fingerprint, so configs never collide) and
    execution pool, with its own config.  Not registered; nothing to
    shut down. *)

val shutdown : t -> unit
(** Shut down an {!create}d engine's owned pool and drop it from
    {!all}.  The engine must not be used afterwards. *)

val default : unit -> t
(** The process-default engine (created on first use from
    {!config_of_env}; executes on the global domain pool). *)

val current : unit -> t
(** The calling domain's dynamically-bound engine ({!with_current}),
    falling back to {!default}.  This is what [Wl.force] consults —
    the only engine lookup on the solve hot path. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run [f] with [e] as the calling domain's current engine
    (restored afterwards, exceptions included).  Domain-local: solves
    on other domains are unaffected. *)

val id : t -> int
(** Unique per engine (including derived ones); tags mempool scope
    marks so interleaved scopes of two engines trip the debug guard. *)

val label : t -> int
(** The engine's root attribution id: [id] for {!create}d engines,
    the parent's label for {!derive}d ones.  This is the value behind
    the [engine] metric label and flight-recorder [engine_id] — so a
    root engine and its per-solve derivations share one metric shard
    instead of minting unbounded label cardinality. *)

val config_fingerprint : t -> string
(** A compact human-readable digest of the engine's current config
    (opt level, threads, feature flags, scheduling policy, backend)
    for flight-recorder records. *)

val new_scope : ?tenant:string -> t -> Mg_obs.Scope.t
(** A fresh per-solve trace context attributed to this engine's
    {!label}, carrying pre-interned labelled shards of the
    [plan_cache.*], [mempool.*] and every [kernel.ns_elt.*] family
    ({!Kernel.ns_elt_names}).  [Driver.run] installs one per solve
    with [Mg_obs.Scope.with_scope]. *)

val flight_log : t -> Mg_obs.Flight.record list
(** Flight-recorder records attributed to this engine's {!label},
    oldest first. *)

val config : t -> config

val settings : t -> Exec.settings
(** The executor settings for the engine's current config: the
    opt-level feature table applied, the engine's cache and pool
    handles included. *)

val pool : t -> unit -> Mg_smp.Domain_pool.t
(** The engine's execution pool, created/resized on demand to
    [config.threads].  {!create}d engines own theirs; {!default} (and
    engines derived from it) resize the process-global pool. *)

(** {1 Per-engine plan cache} *)

val cache : t -> Plan.cache_entry Plan_cache.t
val cache_stats : t -> Plan_cache.stats
val cache_length : t -> int
val cache_clear : t -> unit
(** Drop the engine's cached plans, zero its statistics, and release
    the (process-wide) pooled buffers. *)

(** {1 Introspection} *)

val all : unit -> t list
(** Every {!create}d (and the default) engine still alive, in creation
    order — the bench harness reports per-engine cache stats from
    this. *)

val opt_level_of_string : string -> opt_level option
val opt_level_to_string : opt_level -> string
