(* Bechamel micro-benchmarks of the computational kernels.

   Beyond printing to stdout, the section writes BENCH_kernels.json through
   {!Ledger}: ns/run and minor words/run per kernel, as rows
   kernels.<kernel>.ns_per_run and kernels.<kernel>.minor_words_per_run.

   The inference hot path is measured in pairs: the incremental-cache MH
   sweep against the stateless-delta one, and multi-domain inference
   against single-domain, so the speedups are visible in the same run. *)

open Because_bgp
module Sc = Because_scenario
module Ctx = Bench_context
module Rng = Because_stats.Rng

let make_dataset () =
  (* A representative tomography instance: ~120 nodes, ~600 paths. *)
  let rng = Rng.create 2024 in
  let observations =
    List.init 600 (fun _ ->
        let len = 3 + Rng.int rng 4 in
        let nodes =
          List.sort_uniq Int.compare
            (List.init len (fun _ -> 1 + Rng.int rng 120))
        in
        (List.map Asn.of_int nodes, Rng.float rng < 0.18))
  in
  Because.Tomography.of_observations observations

let tests () =
  let data = make_dataset () in
  let model = Because.Model.create data in
  let target = Because.Model.target model in
  let target_uncached = Because.Model.target ~cached:false model in
  let n = Because.Tomography.n_nodes data in
  let p = Array.init n (fun i -> 0.1 +. (0.8 *. float_of_int (i mod 7) /. 7.0)) in
  let rng = Rng.create 99 in
  let likelihood =
    Bechamel.Test.make ~name:"log_likelihood"
      (Bechamel.Staged.stage (fun () ->
           ignore (Because.Model.log_likelihood model p)))
  in
  let gradient =
    Bechamel.Test.make ~name:"gradient"
      (Bechamel.Staged.stage (fun () ->
           ignore (Because.Model.grad_log_posterior model p)))
  in
  let delta_uncached =
    Bechamel.Test.make ~name:"delta_uncached"
      (Bechamel.Staged.stage (fun () ->
           ignore (Because.Model.delta_log_posterior model p 17 0.42)))
  in
  let delta_cached =
    (* One cache reused across runs; deltas without commits leave it at p. *)
    let cache = Because.Model.make_cache model p in
    Bechamel.Test.make ~name:"delta_cached"
      (Bechamel.Staged.stage (fun () ->
           ignore (cache.Because_mcmc.Target.cached_delta 17 0.42)))
  in
  let mh_sweep tgt name =
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Because_mcmc.Metropolis.run_single_site ~rng:(Rng.copy rng)
                ~n_samples:50 ~burn_in:10 tgt)))
  in
  let mh_cached = mh_sweep target "mh_50_draws_cached" in
  let mh_uncached = mh_sweep target_uncached "mh_50_draws_uncached" in
  (* [checkpoint] builds the hooks afresh for every iteration. *)
  let infer_jobs ?(telemetry = Because_telemetry.Registry.disabled)
      ?checkpoint jobs name =
    let config =
      { Because.Infer.default_config with
        n_samples = 100; burn_in = 100; n_chains = 2; jobs; telemetry }
    in
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () ->
           let config =
             match checkpoint with
             | None -> config
             | Some fresh -> { config with checkpoint = Some (fresh ()) }
           in
           ignore (Because.Infer.run ~rng:(Rng.create 7) ~config data)))
  in
  (* The jobs sweep shares one task shape (2 samplers × 2 chains = 4 tasks)
     so the rows differ only in scheduling width; results are bit-identical
     across the sweep by the pre-split RNG discipline.  CI fails the build
     if the jobs=4 row regresses below the jobs=1 row. *)
  let infer_seq = infer_jobs 1 "infer_4_chains_jobs1" in
  let infer_j2 = infer_jobs 2 "infer_4_chains_jobs2" in
  let infer_par = infer_jobs 4 "infer_4_chains_jobs4" in
  let infer_j8 = infer_jobs 8 "infer_4_chains_jobs8" in
  (* Paired with [infer_seq]: the same run with live checkpoint hooks at the
     default cadence (wall-clock driven, so a bench-length run only pays the
     per-sweep cadence test plus the end-of-chain saves).  Every iteration
     opens a fresh, non-resuming store on one directory — attaching wipes
     the previous iteration's snapshots — so each run samples every sweep.
     A store shared across iterations would resume finished chains and
     sample nothing, measuring a no-op. *)
  let infer_ckpt =
    let dir = Filename.temp_file "because-bench-ckpt" ".dir" in
    Sys.remove dir;
    infer_jobs
      ~checkpoint:(fun () ->
        let recovery = Sc.Recovery.create ~dir () in
        Sc.Recovery.attach recovery ~fingerprint:"bench-kernels";
        Sc.Recovery.chain_hooks recovery ~namespace:"bench.")
      1 "infer_4_chains_jobs1_checkpoint"
  in
  (* One live registry reused across iterations: spans overwrite their ring
     and counters just keep summing, so steady-state record cost — not
     registry construction — is what gets measured. *)
  let infer_tel =
    infer_jobs
      ~telemetry:(Because_telemetry.Registry.create ())
      1 "infer_4_chains_jobs1_telemetry"
  in
  let hmc_traj =
    Bechamel.Test.make ~name:"hmc_10_draws"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Because_mcmc.Hmc.run ~rng:(Rng.copy rng) ~n_samples:10
                ~burn_in:5 ~leapfrog_steps:10 target)))
  in
  let rfd_engine =
    Bechamel.Test.make ~name:"rfd_record_query"
      (Bechamel.Staged.stage (fun () ->
           let s = Rfd.create Rfd_params.cisco in
           for i = 0 to 19 do
             Rfd.record s ~now:(float_of_int i *. 60.0) Rfd.Withdrawal
           done;
           ignore (Rfd.suppressed s ~now:1300.0)))
  in
  let heap =
    Bechamel.Test.make ~name:"heap_1k_push_pop"
      (Bechamel.Staged.stage (fun () ->
           let h = Because_sim.Heap.create () in
           let local = Rng.create 7 in
           for _ = 1 to 1000 do
             Because_sim.Heap.push h ~time:(Rng.float local) ()
           done;
           while not (Because_sim.Heap.is_empty h) do
             ignore (Because_sim.Heap.top_time h);
             ignore (Because_sim.Heap.take h)
           done))
  in
  let topology =
    Bechamel.Test.make ~name:"topology_100_as"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Because_topology.Generate.generate (Rng.create 3)
                {
                  Because_topology.Generate.default_params with
                  n_transit = 20;
                  n_stub = 72;
                })))
  in
  (* Groups of rows, in measuring order.  A group of several rows is
     measured in alternating rounds, each row keeping its fastest estimate,
     so drift over the section falls on paired rows alike.  The rows on the
     calling domain come first: the first pooled [Parallel] run tunes the
     calling domain's GC for the rest of the process, which a jobs=1 run of
     the program never does, so the pooled rows come last.  Their
     minor-words measure would see only the calling domain, so they print
     none rather than an undercount. *)
  [ ([ likelihood ], true); ([ gradient ], true); ([ delta_uncached ], true);
    ([ delta_cached ], true); ([ mh_uncached ], true); ([ mh_cached ], true);
    ([ infer_seq; infer_tel; infer_ckpt ], true); ([ hmc_traj ], true);
    ([ rfd_engine ], true); ([ heap ], true); ([ topology ], true);
    ([ infer_j2; infer_par; infer_j8 ], false) ]

let estimate analysed =
  (* One test per Benchmark.all call, so the table has exactly one entry. *)
  Hashtbl.fold
    (fun _ result acc ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some (x :: _) -> Some x
      | Some [] | None -> acc)
    analysed None

(* Minor words allocated by the calling domain.  Bechamel's
   [Toolkit.Instance.minor_allocated] reads [Gc.quick_stat], which on OCaml 5
   only advances at a minor collection: a kernel allocating less than a
   nursery per sample read 0 words.  [Gc.minor_words] also counts the words
   allocated since the last collection, so it reads every allocation. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Bechamel.Measure.instance
    (module Minor_words)
    (Bechamel.Measure.register (module Minor_words))

let measure cfg test =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let results = Benchmark.all cfg [ clock; minor_words ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let time = estimate (Analyze.all ols clock results) in
  let words = estimate (Analyze.all ols minor_words results) in
  (time, words)

let row_name kernel quantity = Printf.sprintf "kernels.%s.%s" kernel quantity

(* Each row of [group] with its fastest (ns, words) estimate over three
   alternating rounds; a single row is measured once. *)
let measure_group cfg group =
  let best = Array.make (List.length group) (None, None) in
  for _ = 1 to if List.length group > 1 then 3 else 1 do
    List.iteri
      (fun i test ->
        match (measure cfg test, best.(i)) with
        | (Some ns, _), (Some b, _) when ns >= b -> ()
        | ((Some _, _) as m), _ -> best.(i) <- m
        | (None, _), _ -> ())
      group
  done;
  List.combine group (Array.to_list best)

let run () =
  Ctx.section "Kernel micro-benchmarks (Bechamel)";
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000
      ~quota:(Bechamel.Time.second 0.5) ~kde:None ()
  in
  let rows =
    List.concat_map
      (fun (group, calling_domain) ->
        List.concat_map
          (fun (test, estimate) ->
            let name =
              match Bechamel.Test.elements test with
              | [ e ] -> Bechamel.Test.Elt.name e
              | _ -> "?"
            in
            match estimate with
            | Some ns, words ->
                let words = if calling_domain then words else None in
                (if ns > 1_000_000.0 then
                   Printf.printf "%-32s %12.3f ms/run" name (ns /. 1e6)
                 else if ns > 1_000.0 then
                   Printf.printf "%-32s %12.3f µs/run" name (ns /. 1e3)
                 else Printf.printf "%-32s %12.1f ns/run" name ns);
                (match words with
                | Some w -> Printf.printf " %14.0f w/run\n" w
                | None -> print_newline ());
                Ledger.row (row_name name "ns_per_run") "ns" Lower ns
                :: Option.to_list
                     (Option.map
                        (Ledger.row (row_name name "minor_words_per_run")
                           "words" Lower)
                        words)
            | None, _ ->
                Printf.printf "%-32s (no estimate)\n" name;
                [])
          (measure_group cfg group))
      (tests ())
  in
  let ns kernel = row_name kernel "ns_per_run" in
  Ledger.speedup rows ~label:"MH sweep cache speedup"
    ~slow:(ns "mh_50_draws_uncached") ~fast:(ns "mh_50_draws_cached");
  Ledger.speedup rows ~label:"single-site delta speedup"
    ~slow:(ns "delta_uncached") ~fast:(ns "delta_cached");
  List.iter
    (fun jobs ->
      Ledger.speedup rows
        ~label:(Printf.sprintf "inference jobs=%d speedup" jobs)
        ~slow:(ns "infer_4_chains_jobs1")
        ~fast:(ns (Printf.sprintf "infer_4_chains_jobs%d" jobs)))
    [ 2; 4; 8 ];
  Ledger.overhead rows ~label:"inference telemetry overhead"
    ~off:(ns "infer_4_chains_jobs1") ~on:(ns "infer_4_chains_jobs1_telemetry");
  Ledger.overhead rows ~label:"inference checkpoint overhead"
    ~off:(ns "infer_4_chains_jobs1")
    ~on:(ns "infer_4_chains_jobs1_checkpoint");
  Ledger.write ~section:"kernels" rows
