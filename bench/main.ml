(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the ablation benches, and measures the computational
   kernels with Bechamel.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig12 # one section
     dune exec bench/main.exe -- --list       # section ids
     BECAUSE_BENCH_QUICK=1 dune exec ...      # small world for development *)

let sections : (string * string * (unit -> unit)) list =
  [
    ("fig2", "RFD penalty evolution at a router", Figures.fig2);
    ("fig5", "Beacon pattern and RFD signature", Figures.fig5);
    ("fig6", "link similarity between Beacon sites", Figures.fig6);
    ("fig7", "collector project overlap", Figures.fig7);
    ("fig8", "propagation-time comparison", Figures.fig8);
    ("fig9", "archetype posterior distributions", Figures.fig9);
    ("fig10", "announcement distribution across Bursts", Figures.fig10);
    ("fig11", "mean-vs-certainty scatter", Figures.fig11);
    ("fig12", "damping share per update interval", Figures.fig12);
    ("fig13", "re-advertisement delta CDF", Figures.fig13);
    ("tab1", "category definitions", Tables.tab1);
    ("tab2", "category shares at 1 minute", Tables.tab2);
    ("tab3", "ground-truth divergences", Tables.tab3);
    ("tab4", "precision/recall incl. ROV", Tables.tab4);
    ("appA", "Beacon share of control-plane traffic", Tables.app_a);
    ("appB", "vendor default parameters", Tables.app_b);
    ("ablations", "design-choice ablations", Ablations.all);
    ("faults", "fault-injection severity sweep", Faults.run);
    ("kernels", "Bechamel kernel micro-benchmarks", Kernels.run);
    ("sim", "simulator throughput and router hot path", Sim.run);
    ("scale", "events/s and peak RSS vs AS count (child per size)", Scale.run);
    ("service", "always-on scheduler throughput and drain overhead",
     Service_bench.run);
    ("http", "query-plane request rate and streaming warm-start saving",
     Http_bench.run);
  ]

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "--scale-child" :: rest ->
      (* Hidden mode: the scale section re-executes this binary once per
         world size so each measurement gets a fresh address space. *)
      Scale.child rest
  | _ :: "--list" :: _ ->
      List.iter
        (fun (id, description, _) -> Printf.printf "%-10s %s\n" id description)
        sections
  | _ :: "--only" :: wanted :: _ -> (
      match List.find_opt (fun (id, _, _) -> id = wanted) sections with
      | Some (_, _, run) ->
          run ();
          exit (if !Bench_context.failed then 1 else 0)
      | None ->
          Printf.eprintf "unknown section %s (try --list)\n" wanted;
          exit 1)
  | _ ->
      print_endline
        "BeCAUSe benchmark harness — reproducing the evaluation of 'BGP \
         Beacons, Network Tomography, and Bayesian Computation to Locate \
         Route Flap Damping' (IMC 2020)";
      Printf.printf "scale: %s\n"
        (if Bench_context.quick then "quick (BECAUSE_BENCH_QUICK)" else "full");
      let t0 = Unix.gettimeofday () in
      List.iter (fun (_, _, run) -> run ()) sections;
      Printf.printf "\ntotal bench time: %.0f s\n" (Unix.gettimeofday () -. t0);
      exit (if !Bench_context.failed then 1 else 0)
