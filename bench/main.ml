(* Reproduction harness: regenerates every figure and table of the paper's
   evaluation (see DESIGN.md for the experiment index), plus the
   observability, resilience, scale and dissemination sections.  Each
   section prints its tables and checks to stdout; only OBS writes a file,
   BENCH_obs.json.  A failed check fails the run: the harness lists the
   failed labels last and exits 1.

   Run everything:          dune exec bench/main.exe
   Run selected sections:   dune exec bench/main.exe -- F6.1 F6.3
   List sections:           dune exec bench/main.exe -- --list *)

let experiments =
  [
    ("F5.2", Exp_degrees.fig_5_2);
    ("F6.1", Exp_degrees.fig_6_1);
    ("T6.3", Exp_degrees.table_6_3);
    ("F6.3", Exp_degrees.fig_6_3);
    ("L6.6", Exp_degrees.table_6_7);
    ("F6.4", Exp_churn.fig_6_4);
    ("C6.14", Exp_churn.table_6_14);
    ("L7.6", Exp_independence.table_7_6);
    ("F7.1", Exp_independence.fig_7_1);
    ("T7.4", Exp_independence.table_7_4);
    ("L7.15", Exp_independence.table_7_15);
    ("L7.5", Exp_independence.table_7_5);
    ("B1", Exp_baselines.table_baselines);
    ("B2", Exp_baselines.table_random_walk);
    ("A1", Exp_ablations.ablation_scheduler);
    ("A2", Exp_ablations.ablation_sender_weighting);
    ("A3", Exp_ablations.ablation_duplication);
    ("A4", Exp_ablations.ablation_variants);
    ("A5", Exp_ablations.ablation_reconnection);
    ("G1", Exp_extensions.graph_quality);
    ("M1", Exp_extensions.degree_mc_mixing);
    ("B3", Exp_extensions.minwise_vs_views);
    ("B4", Exp_extensions.cyclon_age_rule);
    ("P1", Exp_extensions.partition_healing);
    ("FA1", Exp_faults.bursty_vs_iid);
    ("FA2", Exp_faults.fault_recovery);
    ("N1", Exp_robustness.nonuniform_loss);
    ("CH1", Exp_robustness.session_churn);
    ("R1", Exp_robustness.dissemination);
    ("U1", Exp_robustness.udp_crosscheck);
    ("OBS", Exp_obs.run);
    ("RES1", Exp_resilience.fig_res1);
    ("RES2", Exp_resilience.fig_res2);
    ("SCALE", Exp_scale.run);
    ("SPREAD", Exp_spread.run ~smoke:false);
    ("SPREAD10", Exp_spread.run ~smoke:true);
  ]

(* Run the sections in order, reporting each one's wall time, then the
   failed checks; exit 1 if there are any.  The tree's single wall clock
   lives in Sf_obs.Clock. *)
let run_sections sections =
  let run () =
    List.iter
      (fun (id, f) ->
        let elapsed = Sf_obs.Clock.stopwatch ~clock:Sf_obs.Clock.wall in
        f ();
        Fmt.pr "  (%s finished in %.1fs)@." id (elapsed ()))
      sections
  in
  match Output.failures run with
  | [] -> ()
  | failed ->
    Fmt.pr "@.%d failed check%s:@." (List.length failed)
      (if List.length failed = 1 then "" else "s");
    List.iter (Fmt.pr "  %s@.") failed;
    exit 1

let () =
  let args =
    match Array.to_list Sys.argv with [] -> [] | _exe :: rest -> rest
  in
  match args with
  | [ "--list" ] ->
    List.iter (fun (id, _) -> Fmt.pr "%s@." id) experiments
  | [] ->
    Fmt.pr "Send & Forget reproduction harness (PODC'09 / SICOMP'10).@.";
    run_sections experiments
  | selected ->
    run_sections
      (List.filter_map
         (fun id ->
           match List.assoc_opt id experiments with
           | Some f -> Some (id, f)
           | None ->
             Fmt.epr "unknown experiment %S (try --list)@." id;
             None)
         selected)
